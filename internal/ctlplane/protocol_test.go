package ctlplane

import (
	"bytes"
	"strings"
	"testing"

	"kfi/internal/campaign"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kir"
)

func TestSpecResolveValidation(t *testing.T) {
	cases := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{name: "valid", spec: Spec{Platform: "p4", Campaign: "stack", N: 5}},
		{name: "alias platform", spec: Spec{Platform: "G4", Campaign: "code", N: 1}},
		{name: "alias campaign", spec: Spec{Platform: "p4", Campaign: "system-registers", N: 2}},
		{name: "unknown platform", spec: Spec{Platform: "vax", Campaign: "stack", N: 5}, wantErr: true},
		{name: "unknown campaign", spec: Spec{Platform: "p4", Campaign: "paging", N: 5}, wantErr: true},
		{name: "zero n", spec: Spec{Platform: "p4", Campaign: "stack", N: 0}, wantErr: true},
		{name: "burst too wide", spec: Spec{Platform: "p4", Campaign: "stack", N: 5, Burst: 9}, wantErr: true},
		{name: "negative retries", spec: Spec{Platform: "p4", Campaign: "stack", N: 5, Retries: -1}, wantErr: true},
		{name: "hardened", spec: Spec{Platform: "p4", Campaign: "stack", N: 5, Harden: "dup+cfsig"}},
		{name: "unknown harden pass", spec: Spec{Platform: "p4", Campaign: "stack", N: 5, Harden: "tmr"}, wantErr: true},
	}
	for _, c := range cases {
		_, err := c.spec.Resolve()
		if (err != nil) != c.wantErr {
			t.Errorf("%s: Resolve() err = %v, wantErr %v", c.name, err, c.wantErr)
		}
	}
}

// TestSpecIDIdentity: the campaign ID is a pure function of the spec, stable
// across name aliases, and distinct for any field change — it is the key the
// journal and idempotent resubmission hang off.
func TestSpecIDIdentity(t *testing.T) {
	base := Spec{Platform: "p4", Campaign: "sysreg", N: 100, Seed: 42}
	id1, err := base.ID()
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := base.ID()
	if id1 != id2 {
		t.Fatalf("ID not deterministic: %s vs %s", id1, id2)
	}
	// Aliases resolve before hashing: "registers" names the same campaign.
	alias := base
	alias.Campaign = "registers"
	alias.Platform = "P4"
	if idA, _ := alias.ID(); idA != id1 {
		t.Errorf("alias spec got a different ID: %s vs %s", idA, id1)
	}
	if !strings.HasPrefix(id1, "p4-system-registers-") {
		t.Errorf("ID %q lacks the human-readable platform-campaign prefix", id1)
	}
	for _, mut := range []func(*Spec){
		func(s *Spec) { s.N++ },
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Burst = 2 },
		func(s *Spec) { s.Scale = 2 },
		func(s *Spec) { s.Retries = 5 },
		func(s *Spec) { s.Platform = "g4" },
		func(s *Spec) { s.Campaign = "data" },
		func(s *Spec) { s.Harden = "dup" },
		func(s *Spec) { s.Harden = "dup+cfsig" },
	} {
		m := base
		mut(&m)
		if idM, err := m.ID(); err != nil || idM == id1 {
			t.Errorf("mutated spec %+v: ID %s (err %v) collides with base", m, idM, err)
		}
	}
	if _, err := (Spec{Platform: "vax", Campaign: "stack", N: 1}).ID(); err == nil {
		t.Error("ID() of an unresolvable spec succeeded")
	}
}

// TestSpecForMatchesStudySeeds: -submit derives the same per-(platform,
// campaign) seed a local kfi-campaign run would use, so a submitted study
// and a local study inject identical targets.
func TestSpecForMatchesStudySeeds(t *testing.T) {
	for _, p := range []isa.Platform{isa.CISC, isa.RISC} {
		for _, c := range []inject.Campaign{inject.CampStack, inject.CampSysReg, inject.CampData, inject.CampCode} {
			spec := SpecFor(p, c, 50, 7, 1, 1, 0, kir.HardenOpts{})
			if spec.Seed != core.SpecSeed(7, p, c) {
				t.Errorf("%v %v: seed %d, want %d", p, c, spec.Seed, core.SpecSeed(7, p, c))
			}
			res, err := spec.Resolve()
			if err != nil {
				t.Fatalf("%v %v: SpecFor produced an unresolvable spec: %v", p, c, err)
			}
			if res.Platform != p || res.Spec.Campaign != c || res.Spec.N != 50 {
				t.Errorf("%v %v: resolved to %+v", p, c, res)
			}
		}
	}
}

func TestSortStatuses(t *testing.T) {
	list := []Status{
		{ID: "b", State: StateDone},
		{ID: "c", State: StateRunning},
		{ID: "a", State: StateFailed},
		{ID: "d", State: StateQueued},
	}
	SortStatuses(list)
	got := []string{list[0].ID, list[1].ID, list[2].ID, list[3].ID}
	want := []string{"c", "d", "a", "b"} // active first, then terminal, ID order within
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sorted order %v, want %v", got, want)
		}
	}
}

// TestStreamFrameRoundTrip: rows framed for the wire decode back through the
// same codec the journal uses, and campaign.ScanJournal reassembles a
// canonical journal's header and table.
func TestStreamFrameRoundTrip(t *testing.T) {
	rows := map[int]inject.Result{
		0: {Outcome: inject.ONotManifested, Activated: true, ActivationKnown: true},
		3: {Outcome: inject.OCrash, Cause: isa.CauseBadArea, Latency: 1234, Activated: true, ActivationKnown: true},
		7: {Outcome: inject.ONotActivated},
	}
	var wire bytes.Buffer
	for idx, r := range rows {
		payload, err := campaign.EncodeRecord(idx, r)
		if err != nil {
			t.Fatal(err)
		}
		wire.Write(campaign.Frame(payload))
	}
	fr := campaign.NewFrameReader(&wire)
	got := map[int]inject.Result{}
	for {
		payload, ok := fr.Next()
		if !ok {
			break
		}
		idx, r, err := campaign.DecodeRecord(payload)
		if err != nil {
			t.Fatal(err)
		}
		got[idx] = r
	}
	if len(got) != len(rows) {
		t.Fatalf("round-tripped %d rows, want %d", len(got), len(rows))
	}
	for idx, want := range rows {
		if got[idx] != want {
			t.Errorf("idx %d: %+v, want %+v", idx, got[idx], want)
		}
	}

	// A torn trailing frame damages only itself: rows before it survive.
	var torn bytes.Buffer
	p0, _ := campaign.EncodeRecord(1, inject.Result{Outcome: inject.ONotManifested})
	p1, _ := campaign.EncodeRecord(2, inject.Result{Outcome: inject.OFailSilence})
	torn.Write(campaign.Frame(p0))
	full := campaign.Frame(p1)
	torn.Write(full[:len(full)-3])
	fr = campaign.NewFrameReader(&torn)
	n := 0
	for {
		if _, ok := fr.Next(); !ok {
			break
		}
		n++
	}
	if n != 1 {
		t.Fatalf("torn stream yielded %d frames, want 1 (the intact one)", n)
	}

	// ScanJournal round-trips CanonicalJournalBytes.
	h := campaign.HeaderFor(isa.CISC, 0xDEADBEEF, campaign.Spec{Campaign: inject.CampData, N: 8, Seed: 3})
	canon, err := campaign.CanonicalJournalBytes(h, rows)
	if err != nil {
		t.Fatal(err)
	}
	h2, table, err := campaign.ScanJournal(bytes.NewReader(canon))
	if err != nil {
		t.Fatal(err)
	}
	if h2 != h {
		t.Errorf("header round-trip: %+v vs %+v", h2, h)
	}
	if len(table) != len(rows) {
		t.Errorf("table has %d rows, want %d", len(table), len(rows))
	}
	// Canonical bytes are order-independent: re-encoding the decoded table
	// reproduces them exactly.
	again, err := campaign.CanonicalJournalBytes(h2, table)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(canon, again) {
		t.Error("canonical journal bytes are not stable across decode/encode")
	}
	// A record whose index lies outside the campaign ends the valid prefix.
	bad, _ := campaign.EncodeRecord(h.N, inject.Result{Outcome: inject.OCrash})
	_, table, err = campaign.ScanJournal(bytes.NewReader(append(canon, campaign.Frame(bad)...)))
	if err != nil || len(table) != len(rows) {
		t.Errorf("out-of-range record: %d rows, err %v; want %d rows", len(table), err, len(rows))
	}
	// A stream that is not a journal is refused.
	if _, _, err := campaign.ScanJournal(bytes.NewReader(campaign.Frame([]byte(`{"magic":"nope"}`)))); err == nil {
		t.Error("frame stream without the journal magic accepted")
	}
}
