package ctlplane

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"kfi/internal/inject"
)

// TestLeaseExpiryRequeue pins the lease state machine with a fake clock: a
// heartbeat extends a lease past its original deadline, a worker that goes
// silent mid-chunk forfeits the lease, the chunk is requeued to the front of
// the queue for the next worker, and a post-expiry heartbeat reports Lost.
func TestLeaseExpiryRequeue(t *testing.T) {
	clock := newFakeClock()
	ttl := 30 * time.Second
	_, client := testCoordinator(t, Config{Clock: clock, LeaseTTL: ttl, ChunkSize: 3})

	spec := testSpec(inject.CampStack, 9, 7)
	sub, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, client, sub.ID, "running", func(st Status) bool { return st.State == StateRunning })

	l1, err := client.Lease("silent-worker")
	if err != nil {
		t.Fatal(err)
	}
	if l1.NoWork || len(l1.Indices) != 3 || l1.CampaignID != sub.ID {
		t.Fatalf("first lease = %+v, want a 3-index chunk of %s", l1, sub.ID)
	}
	if l1.HeartbeatMillis != (ttl / 3).Milliseconds() {
		t.Errorf("heartbeat interval %dms, want %dms", l1.HeartbeatMillis, (ttl / 3).Milliseconds())
	}

	// Heartbeats extend the deadline: at +20s and again at +40s — past the
	// original +30s deadline — the lease must still be alive.
	clock.advance(20 * time.Second)
	if hb, err := client.Heartbeat(l1.LeaseID, "silent-worker"); err != nil || hb.Lost {
		t.Fatalf("heartbeat at +20s = %+v, %v; want alive", hb, err)
	}
	clock.advance(20 * time.Second)
	if hb, err := client.Heartbeat(l1.LeaseID, "silent-worker"); err != nil || hb.Lost {
		t.Fatalf("heartbeat at +40s = %+v, %v; want alive (deadline was extended)", hb, err)
	}

	// Then the worker goes silent past the TTL: the next worker's lease
	// request must receive the forfeited chunk — requeued to the FRONT, ahead
	// of the untouched pending chunks.
	clock.advance(ttl + time.Second)
	l2, err := client.Lease("replacement-worker")
	if err != nil {
		t.Fatal(err)
	}
	if l2.NoWork {
		t.Fatal("no work for replacement worker; expired chunk was not requeued")
	}
	if !slices.Equal(l2.Indices, l1.Indices) {
		t.Fatalf("replacement lease got %v, want the forfeited chunk %v first", l2.Indices, l1.Indices)
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("requeued chunk reissued under the same lease ID")
	}

	// The silent worker's late heartbeat learns the lease is gone.
	if hb, err := client.Heartbeat(l1.LeaseID, "silent-worker"); err != nil || !hb.Lost {
		t.Fatalf("post-expiry heartbeat = %+v, %v; want Lost", hb, err)
	}

	st, err := client.Status(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.Leased != 1 || st.Pending != 2 {
		t.Errorf("chunks = %d leased / %d pending, want 1 / 2", st.Leased, st.Pending)
	}
}

// TestDuplicateDelivery pins exactly-once journaling under double delivery:
// a worker streams part of its chunk and dies; the chunk's unjournaled
// remainder is releated to a second worker; the zombie's full stream then
// arrives late, and every already-journaled row is discarded without
// corrupting the outcome table, which stays byte-identical to a farm run.
func TestDuplicateDelivery(t *testing.T) {
	clock := newFakeClock()
	ttl := 30 * time.Second
	_, client := testCoordinator(t, Config{Clock: clock, LeaseTTL: ttl, ChunkSize: 100})

	// Stack rows always execute, so every row goes out in the lease; most
	// data rows are synthesized from the golden trace at prepare time.
	spec := testSpec(inject.CampStack, 10, 21)
	sub, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := waitStatus(t, client, sub.ID, "running", func(st Status) bool { return st.State == StateRunning })
	pre := run.Done // plan-synthesized rows journaled at prepare

	l1, err := client.Lease("zombie")
	if err != nil {
		t.Fatal(err)
	}
	if l1.NoWork {
		t.Fatal("no lease for first worker")
	}
	rows := localRows(t, spec, l1.Indices)
	if len(rows) != len(l1.Indices) {
		t.Fatalf("local run produced %d rows for %d indices", len(rows), len(l1.Indices))
	}

	// The zombie journals 3 rows, then goes silent.
	sum := streamRows(t, client, sub.ID, l1.LeaseID, rows[:3])
	if sum.Accepted != 3 || sum.Duplicates != 0 {
		t.Fatalf("partial stream summary = %+v, want 3 accepted", sum)
	}
	clock.advance(ttl + time.Second)

	// The replacement lease carries only the unjournaled remainder.
	l2, err := client.Lease("replacement")
	if err != nil {
		t.Fatal(err)
	}
	if l2.NoWork {
		t.Fatal("expired chunk not releated")
	}
	wantRemainder := l1.Indices[3:]
	if !slices.Equal(l2.Indices, wantRemainder) {
		t.Fatalf("releated indices %v, want unjournaled remainder %v", l2.Indices, wantRemainder)
	}

	// The zombie's full stream arrives late — all 10 rows, 3 of them already
	// journaled under its dead lease, 7 new (journaled under no live lease
	// credit, which is fine: the journal, not the lease, is the truth).
	sum = streamRows(t, client, sub.ID, l1.LeaseID, rows)
	if sum.Accepted != len(rows)-3 || sum.Duplicates != 3 {
		t.Fatalf("late full stream summary = %+v, want %d accepted / 3 duplicates", sum, len(rows)-3)
	}

	// The replacement worker executes its (now fully journaled) chunk and
	// streams it: pure duplicates, all discarded, lease released.
	sum = streamRows(t, client, sub.ID, l2.LeaseID, rows[3:])
	if sum.Accepted != 0 || sum.Duplicates != len(rows)-3 {
		t.Fatalf("duplicate chunk summary = %+v, want all %d duplicates", sum, len(rows)-3)
	}

	st := waitStatus(t, client, sub.ID, "done", func(st Status) bool { return st.State == StateDone })
	if st.Done != st.Total || st.Total != 10 {
		t.Fatalf("final status %+v, want 10/10 done", st)
	}
	if st.Duplicates != 3+len(rows)-3 {
		t.Errorf("duplicate count = %d, want %d", st.Duplicates, len(rows))
	}
	if pre+len(rows) != st.Total {
		t.Logf("note: %d pre-synthesized + %d executed rows", pre, len(rows))
	}

	wantTable, wantBytes := farmRun(t, spec)
	assertTableEqual(t, client, sub.ID, wantTable, wantBytes)
}

// TestSubmitIdempotentAndValidated: resubmitting a spec addresses the same
// campaign; different specs get different IDs; invalid specs are rejected
// through the same registry paths the CLIs use.
func TestSubmitIdempotentAndValidated(t *testing.T) {
	_, client := testCoordinator(t, Config{Clock: newFakeClock(), ChunkSize: 4})

	spec := testSpec(inject.CampStack, 6, 3)
	first, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != again.ID {
		t.Fatalf("resubmit created a new campaign: %s vs %s", first.ID, again.ID)
	}

	other := spec
	other.Seed++
	second, err := client.Submit(other)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID == first.ID {
		t.Fatal("distinct specs share a campaign ID")
	}

	for _, bad := range []Spec{
		{Platform: "vax", Campaign: "stack", N: 5},
		{Platform: "p4", Campaign: "paging", N: 5},
		{Platform: "p4", Campaign: "stack", N: 0},
		{Platform: "p4", Campaign: "stack", N: 5, Burst: 9},
		{Platform: "p4", Campaign: "stack", N: 5, Retries: -1},
	} {
		if _, err := client.Submit(bad); err == nil {
			t.Errorf("invalid spec %+v accepted", bad)
		} else if !strings.Contains(err.Error(), "invalid spec") {
			t.Errorf("invalid spec %+v: unexpected error %v", bad, err)
		}
	}

	if _, err := client.Status("no-such-campaign"); err == nil {
		t.Error("status of unknown campaign succeeded")
	}
}

// TestCoordinatorRestartResumes: a coordinator torn down mid-campaign and
// rebuilt over the same journal directory re-admits the campaign from its
// spec sidecar, resumes from the journaled prefix (the already-streamed rows
// are not re-executed), and finishes with the farm-identical table.
func TestCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	coord1, client1 := testCoordinator(t, Config{JournalDir: dir, Clock: clock, ChunkSize: 4})

	spec := testSpec(inject.CampStack, 12, 5)
	sub, err := client1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, client1, sub.ID, "running", func(st Status) bool { return st.State == StateRunning })

	l1, err := client1.Lease("w1")
	if err != nil {
		t.Fatal(err)
	}
	rows := localRows(t, spec, l1.Indices)
	streamRows(t, client1, sub.ID, l1.LeaseID, rows)
	mid, err := client1.Status(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Done == 0 || mid.Done >= mid.Total {
		t.Fatalf("restart must happen mid-campaign; done = %d/%d", mid.Done, mid.Total)
	}
	coord1.Close() // the "crash": journals closed, memory gone

	_, client2 := testCoordinator(t, Config{JournalDir: dir, Clock: clock, ChunkSize: 4})
	st := waitStatus(t, client2, sub.ID, "running after restart",
		func(st Status) bool { return st.State == StateRunning })
	if st.Done < mid.Done {
		t.Fatalf("restart lost journaled rows: %d < %d", st.Done, mid.Done)
	}

	// Finish the campaign through the restarted coordinator.
	for {
		l, err := client2.Lease("w2")
		if err != nil {
			t.Fatal(err)
		}
		if l.NoWork {
			break
		}
		streamRows(t, client2, sub.ID, l.LeaseID, localRows(t, spec, l.Indices))
	}
	waitStatus(t, client2, sub.ID, "done", func(st Status) bool { return st.State == StateDone })

	wantTable, wantBytes := farmRun(t, spec)
	assertTableEqual(t, client2, sub.ID, wantTable, wantBytes)

	// A third coordinator over the same directory reloads the finished
	// campaign without rebuilding a guest, and serves identical bytes.
	_, client3 := testCoordinator(t, Config{JournalDir: dir, Clock: clock})
	st3 := waitStatus(t, client3, sub.ID, "done after reload",
		func(st Status) bool { return st.State == StateDone })
	if st3.Done != st3.Total {
		t.Fatalf("reloaded status %+v", st3)
	}
	assertTableEqual(t, client3, sub.ID, wantTable, wantBytes)
}

// TestReloadRefusesUnknownSpecFields: a spec sidecar with a field Spec does
// not define (an engine from an earlier build, or a field from a later one)
// fails the coordinator's reload with an error naming the file, instead of
// being admitted under a different campaign ID next to its old journal.
func TestReloadRefusesUnknownSpecFields(t *testing.T) {
	for name, extra := range map[string]string{
		"engine": `"engine":"translate"`,
		"future": `"future":1`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "p4-stack-00000000.spec.json")
			data := `{"platform":"p4","campaign":"stack","n":4,"seed":1,` + extra + `}`
			if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
			coord, err := NewCoordinator(Config{JournalDir: dir})
			if err == nil {
				coord.Close()
				t.Fatal("sidecar with an unknown field reloaded")
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name %s", err, path)
			}
		})
	}
}

// TestCancelAndDrain: cancelling stops a campaign and frees its leases;
// draining makes lease requests report Drain so workers exit.
func TestCancelAndDrain(t *testing.T) {
	_, client := testCoordinator(t, Config{Clock: newFakeClock(), ChunkSize: 2})

	spec := testSpec(inject.CampStack, 6, 9)
	sub, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, client, sub.ID, "running", func(st Status) bool { return st.State == StateRunning })
	if _, err := client.Lease("w"); err != nil {
		t.Fatal(err)
	}
	st, err := client.Cancel(sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateCancelled || st.Leased != 0 || st.Pending != 0 {
		t.Fatalf("cancelled status = %+v, want cancelled with no chunks", st)
	}
	if _, err := client.RawResults(sub.ID); err == nil {
		t.Error("results of a cancelled campaign served")
	}

	svc, err := client.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if !svc.Draining {
		t.Fatal("drain did not latch")
	}
	l, err := client.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	if !l.Drain || !l.NoWork {
		t.Fatalf("lease under drain = %+v, want Drain+NoWork", l)
	}
	if _, err := client.Submit(testSpec(inject.CampData, 4, 1)); err == nil {
		t.Error("submit accepted while draining")
	}
}

// TestCrashTelemetry: forwarded crash reports aggregate in service status.
func TestCrashTelemetry(t *testing.T) {
	_, client := testCoordinator(t, Config{Clock: newFakeClock()})
	for range 3 {
		if err := client.ReportCrash(CrashReport{Platform: "p4", Cause: "bad paging request"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.ReportCrash(CrashReport{Platform: "g4", Cause: "oops"}); err != nil {
		t.Fatal(err)
	}
	svc, err := client.Service()
	if err != nil {
		t.Fatal(err)
	}
	if svc.Crashes.Received != 4 || svc.Crashes.ByCause["bad paging request"] != 3 || svc.Crashes.ByCause["oops"] != 1 {
		t.Fatalf("crash summary = %+v", svc.Crashes)
	}
}
