package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

func testHeader() Header {
	return HeaderFor(isa.CISC, 0xdeadbeef, Spec{Campaign: inject.CampCode, N: 10, Seed: 7, Burst: 1})
}

func sampleJournalResult(i int) inject.Result {
	return inject.Result{
		Target:          inject.Target{Campaign: inject.CampCode, Addr: uint32(0x1000 + 4*i), Bit: uint(i % 8)},
		ActivationKnown: true,
		Activated:       i%2 == 0,
		Outcome:         inject.OCrash,
		Latency:         uint64(100 * i),
		RunCycles:       uint64(50_000 + i),
		Checksum:        uint32(0xab0 + i),
	}
}

// buildJournalBytes assembles a valid journal image of n records in memory,
// returning the byte offsets at which each record frame starts.
func buildJournalBytes(h Header, n int) ([]byte, []int) {
	hp, err := json.Marshal(h)
	if err != nil {
		panic(err)
	}
	buf := frame(hp)
	offs := make([]int, 0, n)
	for i := 0; i < n; i++ {
		offs = append(offs, len(buf))
		p, err := json.Marshal(journalRecord{Idx: i, Result: sampleJournalResult(i)})
		if err != nil {
			panic(err)
		}
		buf = append(buf, frame(p)...)
	}
	return buf, offs
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.kjournal")
	h := testHeader()
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		if err := j.Append(i, sampleJournalResult(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, completed, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header round trip: got %+v, want %+v", got, h)
	}
	if len(completed) != n {
		t.Fatalf("recovered %d records, want %d", len(completed), n)
	}
	for i := 0; i < n; i++ {
		if completed[i] != sampleJournalResult(i) {
			t.Fatalf("record %d: got %+v, want %+v", i, completed[i], sampleJournalResult(i))
		}
	}
}

func TestJournalHeaderMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.kjournal")
	h := testHeader()
	j, err := CreateJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	other := h
	other.Seed++
	if _, _, err := ResumeJournal(path, other); !errors.Is(err, ErrJournalHeader) {
		t.Fatalf("resume with mismatched header: err = %v, want ErrJournalHeader", err)
	}
	// The matching header still resumes.
	j2, completed, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if len(completed) != 0 {
		t.Fatalf("empty journal resumed %d records", len(completed))
	}
}

// TestJournalResumeRejectsUnknownHeaderFields: a journal whose header
// carries a field this build does not define — a mode marker from another
// build, such as the pruning marker of earlier builds whose journals hold
// synthesized rows — must not be spliced into a run. ReadJournal still
// reads such files.
func TestJournalResumeRejectsUnknownHeaderFields(t *testing.T) {
	for name, extra := range map[string]string{"prune": `"prune":true`, "future": `"future":1`} {
		t.Run(name, func(t *testing.T) {
			h := testHeader()
			hp, err := json.Marshal(h)
			if err != nil {
				t.Fatal(err)
			}
			hp = append(hp[:len(hp)-1], ","+extra+"}"...)
			buf := frame(hp)
			rec, err := EncodeRecord(0, sampleJournalResult(0))
			if err != nil {
				t.Fatal(err)
			}
			buf = append(buf, frame(rec)...)
			path := filepath.Join(t.TempDir(), "c.kjournal")
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, _, err := ResumeJournal(path, h); !errors.Is(err, ErrJournalHeader) {
				t.Fatalf("resume of a header with %s: err = %v, want ErrJournalHeader", extra, err)
			}
			if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, buf) {
				t.Fatalf("rejected resume modified the journal (err %v)", err)
			}
			got, completed, err := ReadJournal(path)
			if err != nil {
				t.Fatalf("ReadJournal: %v", err)
			}
			if got != h || len(completed) != 1 || completed[0] != sampleJournalResult(0) {
				t.Errorf("ReadJournal = %+v with %d records, want %+v with 1", got, len(completed), h)
			}
		})
	}
}

// TestJournalCorruption drives the recovery contract: any damage — a torn
// tail from a crash mid-append, a bit flip anywhere, a corrupted length
// field, even an intact frame with senseless contents — costs only the
// records at and after the damage, never the prefix before it.
func TestJournalCorruption(t *testing.T) {
	h := testHeader()
	base, offs := buildJournalBytes(h, 5)
	senseless, err := json.Marshal(journalRecord{Idx: 99, Result: sampleJournalResult(0)})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		want    int  // records recovered
		wantErr bool // header unreadable
	}{
		{"intact", func(b []byte) []byte { return b }, 5, false},
		{"truncated tail record", func(b []byte) []byte { return b[:len(b)-3] }, 4, false},
		{"tail CRC bit flipped", func(b []byte) []byte {
			b[len(b)-1] ^= 0x10
			return b
		}, 4, false},
		{"payload bit flipped mid-journal", func(b []byte) []byte {
			b[offs[2]+6] ^= 0x01
			return b
		}, 2, false},
		{"length field corrupted", func(b []byte) []byte {
			b[offs[4]] = 0xFF // implausible frame length
			return b
		}, 4, false},
		{"intact frame, out-of-range index", func(b []byte) []byte {
			return append(b, frame(senseless)...)
		}, 5, false},
		{"trailing garbage", func(b []byte) []byte {
			return append(b, 0xDE, 0xAD, 0xBE)
		}, 5, false},
		{"damaged header", func(b []byte) []byte {
			b[6] ^= 0x40
			return b
		}, 0, true},
		{"empty file", func(b []byte) []byte { return nil }, 0, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "c.kjournal")
			if err := os.WriteFile(path, tc.mutate(bytes.Clone(base)), 0o644); err != nil {
				t.Fatal(err)
			}
			got, completed, err := ReadJournal(path)
			if tc.wantErr {
				if err == nil {
					t.Fatal("damaged header read back without error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got != h {
				t.Fatalf("header: got %+v, want %+v", got, h)
			}
			if len(completed) != tc.want {
				t.Fatalf("recovered %d records, want %d", len(completed), tc.want)
			}
			for i := 0; i < tc.want; i++ {
				if completed[i] != sampleJournalResult(i) {
					t.Fatalf("record %d corrupted in recovery: %+v", i, completed[i])
				}
			}
		})
	}
}

// TestJournalResumeAfterCorruption asserts the resume path truncates the
// damaged tail and continues appending from the last valid prefix.
func TestJournalResumeAfterCorruption(t *testing.T) {
	h := testHeader()
	base, _ := buildJournalBytes(h, 5)
	path := filepath.Join(t.TempDir(), "c.kjournal")
	// A crash tore the last record in half.
	if err := os.WriteFile(path, base[:len(base)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	j, completed, err := ResumeJournal(path, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 4 {
		t.Fatalf("resume recovered %d records, want 4", len(completed))
	}
	// Re-append the lost record; the journal must now read back whole.
	if err := j.Append(4, sampleJournalResult(4)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	_, completed, err = ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) != 5 {
		t.Fatalf("after repair: %d records, want 5", len(completed))
	}
	for i := 0; i < 5; i++ {
		if completed[i] != sampleJournalResult(i) {
			t.Fatalf("record %d wrong after repair: %+v", i, completed[i])
		}
	}
}

// FuzzJournalScan hammers the frame scanner with arbitrary bytes: it must
// never panic, and anything it accepts must satisfy the journal invariants.
func FuzzJournalScan(f *testing.F) {
	h := testHeader()
	base, _ := buildJournalBytes(h, 3)
	f.Add(base)
	f.Add(base[:len(base)-5])
	f.Add([]byte("not a journal at all"))
	f.Add([]byte{})
	flipped := bytes.Clone(base)
	flipped[len(flipped)/2] ^= 0x80
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "f.kjournal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, completed, err := ReadJournal(path)
		if err != nil {
			return
		}
		if got.Magic != journalMagic {
			t.Fatalf("accepted journal with magic %q", got.Magic)
		}
		for idx := range completed {
			if idx < 0 || (got.N > 0 && idx >= got.N) {
				t.Fatalf("accepted out-of-range record index %d (n=%d)", idx, got.N)
			}
		}
	})
}
