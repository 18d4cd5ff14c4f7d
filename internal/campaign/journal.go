package campaign

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"

	"kfi/internal/inject"
	"kfi/internal/isa"
)

// The journal is the campaign durability layer: one append-only file per
// campaign, one record per completed injection outcome, so a killed or
// crashed kfi-campaign process can resume exactly where it left off instead
// of discarding every finished experiment.
//
// On-disk format (all integers big-endian):
//
//	frame:  u32 payload length | payload | u32 CRC-32C(payload)
//
// The first frame's payload is the JSON Header identifying the campaign the
// journal belongs to; every later frame's payload is the JSON of one
// journalRecord{Idx, Result}. A reader accepts the longest prefix of intact
// frames and ignores everything after the first damaged one — a torn tail
// record from a crash mid-append, or a bit-flipped byte anywhere, costs only
// the records at and after the damage, never the prefix. ResumeJournal
// truncates the file back to that valid prefix before appending.
//
// Appends go straight to the file descriptor (no userspace buffering), so a
// SIGKILL loses nothing already appended; fsync is batched every
// journalSyncEvery records to bound what a whole-machine crash can lose
// without paying a sync per injection.

// journalMagic names the format; bump the digit on incompatible changes.
const journalMagic = "KFIJRNL1"

// maxJournalFrame caps a frame payload so a corrupted length field cannot
// drive a giant allocation (a record is a few hundred bytes of JSON).
const maxJournalFrame = 1 << 20

// journalSyncEvery is the fsync batch size.
const journalSyncEvery = 64

// ErrJournalHeader reports a journal that belongs to a different campaign
// than the one being resumed (or is not a journal at all).
var ErrJournalHeader = errors.New("campaign: journal header mismatch")

var journalCRC = crc32.MakeTable(crc32.Castagnoli)

// Header identifies the campaign a journal belongs to. Every field must
// match on resume: a journal written for a different spec, seed, platform,
// or golden checksum describes different experiments and must not be
// spliced into this run. A field this build does not know (a marker for a
// mode an earlier or later build has) is a mismatch too, since the
// journal's rows may depend on it.
type Header struct {
	Magic    string          `json:"magic"`
	Platform isa.Platform    `json:"platform"`
	Campaign inject.Campaign `json:"campaign"`
	N        int             `json:"n"`
	Seed     int64           `json:"seed"`
	Burst    uint8           `json:"burst"`
	Golden   uint32          `json:"golden"`
	// Harden names the hardening passes the guest kernel was built with
	// (kir.HardenOpts.String(), e.g. "dup+cfsig"); empty for unhardened
	// campaigns, so pre-hardening journals remain byte-identical. The golden
	// checksum alone cannot tell the builds apart — a hardened fault-free run
	// produces the same workload checksum by construction — so resume
	// matching needs the explicit marker.
	Harden string `json:"harden,omitempty"`
	// Cached records whether the campaign ran with the per-section outcome
	// cache: cached rows carry PredCached, so a cached journal must not be
	// spliced into an uncached run (or vice versa) — the rows would differ
	// byte-for-byte even though the outcomes match.
	Cached bool `json:"cached,omitempty"`
	// Engine names the execution engine the campaign ran on (e.g.
	// "translate", see internal/platform.EngineKind); empty for the platform
	// default, so pre-engine journals remain byte-identical. Outcomes are
	// engine-invariant by construction, but resume still refuses to splice a
	// journal written under one engine into a run under another: a divergence
	// between engines is exactly the bug that policy exists to surface.
	Engine string `json:"engine,omitempty"`
}

// HeaderFor builds the journal header for a campaign spec.
func HeaderFor(platform isa.Platform, golden uint32, spec Spec) Header {
	return Header{Magic: journalMagic, Platform: platform, Campaign: spec.Campaign,
		N: spec.N, Seed: spec.Seed, Burst: spec.Burst, Golden: golden}
}

// journalRecord is one journaled outcome: the target's index in the
// campaign's deterministic target order plus its classified result.
type journalRecord struct {
	Idx    int           `json:"idx"`
	Result inject.Result `json:"result"`
}

// Journal is an open outcome journal positioned for appending. Append is
// safe for concurrent use by the farm's node goroutines.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	pending int // appends since the last fsync
	closed  bool
}

// CreateJournal creates (or truncates) a journal for the given campaign and
// writes its header frame.
func CreateJournal(path string, h Header) (*Journal, error) {
	h.Magic = journalMagic
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	payload, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(frame(payload)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// ResumeJournal opens an existing journal, validates that its header matches
// h, and returns the already-completed outcomes of its longest valid record
// prefix, truncating any damaged tail so subsequent appends extend the valid
// prefix. When the file does not exist it is created, so a first run and a
// resumed run use the same flag. A header carrying a field Header does not
// define fails with ErrJournalHeader.
func ResumeJournal(path string, h Header) (*Journal, map[int]inject.Result, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		j, cerr := CreateJournal(path, h)
		return j, nil, cerr
	}
	if err != nil {
		return nil, nil, err
	}
	got, completed, validEnd, err := scanJournal(f, true)
	if err != nil {
		f.Close()
		// An unreadable or headerless journal is not silently overwritten:
		// the operator asked to resume from it, so losing it is an error.
		return nil, nil, fmt.Errorf("campaign: resume %s: %w", path, err)
	}
	h.Magic = journalMagic
	if got != h {
		f.Close()
		return nil, nil, fmt.Errorf("%w: %s holds %+v, campaign is %+v", ErrJournalHeader, path, got, h)
	}
	if err := f.Truncate(validEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{f: f}, completed, nil
}

// ReadJournal scans a journal file read-only, returning its header and the
// outcomes of the longest valid record prefix.
func ReadJournal(path string) (Header, map[int]inject.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, nil, err
	}
	defer f.Close()
	h, completed, _, err := scanJournal(f, false)
	return h, completed, err
}

// scanJournal reads the header and the longest valid record prefix,
// returning the file offset just past the last intact frame. Damage — a
// truncated tail, a length field pointing past EOF, or a CRC mismatch — ends
// the scan without error; only a missing or malformed header frame fails,
// and with strict set, a header field Header does not define
// (ErrJournalHeader).
func scanJournal(f *os.File, strict bool) (Header, map[int]inject.Result, int64, error) {
	r := &frameReader{r: f}
	hp, ok := r.next()
	if !ok {
		return Header{}, nil, 0, errors.New("no intact header frame")
	}
	var h Header
	if err := json.Unmarshal(hp, &h); err != nil || h.Magic != journalMagic {
		return Header{}, nil, 0, errors.New("not a campaign journal")
	}
	if strict {
		dec := json.NewDecoder(bytes.NewReader(hp))
		dec.DisallowUnknownFields()
		if err := dec.Decode(new(Header)); err != nil {
			return Header{}, nil, 0, fmt.Errorf("%w: %v", ErrJournalHeader, err)
		}
	}
	completed := make(map[int]inject.Result)
	validEnd := r.off
	for {
		payload, ok := r.next()
		if !ok {
			return h, completed, validEnd, nil
		}
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Idx < 0 ||
			(h.N > 0 && rec.Idx >= h.N) {
			// A frame with an intact CRC but senseless contents still ends
			// the valid prefix (defense in depth; CRC collisions are
			// possible under the multi-bit corruption this lab studies).
			return h, completed, validEnd, nil
		}
		completed[rec.Idx] = rec.Result
		validEnd = r.off
	}
}

// frameReader iterates intact frames; any damage reads as end-of-journal.
type frameReader struct {
	r   io.Reader
	off int64
}

// next returns the next frame's payload, or false at EOF or the first sign
// of damage (short read, implausible length, CRC mismatch).
func (fr *frameReader) next() ([]byte, bool) {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return nil, false
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxJournalFrame {
		return nil, false
	}
	buf := make([]byte, n+4)
	if _, err := io.ReadFull(fr.r, buf); err != nil {
		return nil, false
	}
	payload, tail := buf[:n], buf[n:]
	if binary.BigEndian.Uint32(tail) != crc32.Checksum(payload, journalCRC) {
		return nil, false
	}
	fr.off += int64(4 + n + 4)
	return payload, true
}

// Frame wraps a payload in the journal's length/CRC-32C framing. It is the
// wire framing of the control plane's result streams as well: a worker ships
// outcome rows as journal frames, so the coordinator persists exactly what
// arrived and a torn tail frame from a dead worker is indistinguishable from
// (and as harmless as) a torn tail record from a crash mid-append.
func Frame(payload []byte) []byte { return frame(payload) }

// FrameReader iterates the intact frames of a stream; any damage — a short
// read, an implausible length, a CRC mismatch — reads as end-of-stream.
type FrameReader struct {
	fr frameReader
}

// NewFrameReader wraps a stream of journal frames.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{fr: frameReader{r: r}} }

// Next returns the next intact frame's payload, or false at end-of-stream or
// the first sign of damage.
func (r *FrameReader) Next() ([]byte, bool) { return r.fr.next() }

// EncodeRecord marshals one outcome record to the journal's payload format.
func EncodeRecord(idx int, res inject.Result) ([]byte, error) {
	return json.Marshal(journalRecord{Idx: idx, Result: res})
}

// DecodeRecord parses a record payload produced by EncodeRecord (or read
// back out of a journal frame).
func DecodeRecord(payload []byte) (int, inject.Result, error) {
	var rec journalRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return 0, inject.Result{}, fmt.Errorf("campaign: record: %w", err)
	}
	return rec.Idx, rec.Result, nil
}

// CanonicalJournalBytes renders a completed (or partial) outcome set as a
// journal in canonical form: the header frame followed by one record frame
// per outcome in ascending index order. Two runs of the same campaign that
// completed the same outcomes produce byte-identical canonical journals no
// matter which nodes — goroutines or machines — executed which injections,
// or in what order the records originally landed.
func CanonicalJournalBytes(h Header, completed map[int]inject.Result) ([]byte, error) {
	h.Magic = journalMagic
	hp, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	out := frame(hp)
	idxs := make([]int, 0, len(completed))
	for i := range completed {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		payload, err := EncodeRecord(i, completed[i])
		if err != nil {
			return nil, err
		}
		out = append(out, frame(payload)...)
	}
	return out, nil
}

// frame wraps a payload in the length/CRC framing.
func frame(payload []byte) []byte {
	out := make([]byte, 0, 4+len(payload)+4)
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	out = append(out, payload...)
	return binary.BigEndian.AppendUint32(out, crc32.Checksum(payload, journalCRC))
}

// Append journals one completed outcome. The record reaches the kernel
// before Append returns (a killed process loses nothing), and the file is
// fsynced every journalSyncEvery appends.
func (j *Journal) Append(idx int, r inject.Result) error {
	payload, err := json.Marshal(journalRecord{Idx: idx, Result: r})
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("campaign: append to closed journal")
	}
	if _, err := j.f.Write(frame(payload)); err != nil {
		return fmt.Errorf("campaign: journal append: %w", err)
	}
	j.pending++
	if j.pending >= journalSyncEvery {
		j.pending = 0
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("campaign: journal sync: %w", err)
		}
	}
	return nil
}

// Close fsyncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if err := j.f.Sync(); err != nil {
		j.f.Close()
		return err
	}
	return j.f.Close()
}
