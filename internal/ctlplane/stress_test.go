package ctlplane

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kfi/internal/inject"
)

// TestStressWorkersDieAndCoordinatorRestarts is the control plane's
// flextape: a fleet of in-process workers churns through a mini-campaign on
// the smallest real platform while the harness injects the failures the
// subsystem exists to survive — two workers die mid-chunk (one of them
// holding rows it already streamed), and the coordinator itself is torn
// down mid-campaign and rebuilt over the same journal directory behind the
// same URL. The surviving fleet must finish the campaign, and the final
// outcome table must be byte-identical to an in-process farm run of the
// same spec.
//
// Real time is used (system clock, short lease TTL) because the point is
// the integration of all the moving parts; the deterministic lease-machine
// behavior is pinned separately with a fake clock in coordinator_test.go.
func TestStressWorkersDieAndCoordinatorRestarts(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test: several guest builds and a multi-second campaign")
	}
	dir := t.TempDir()
	const (
		leaseTTL = 400 * time.Millisecond
		nWorkers = 4
		nInject  = 60
	)
	cfg := Config{JournalDir: dir, LeaseTTL: leaseTTL, ChunkSize: 3}

	// The coordinator sits behind a swappable handler, so "restart" is a
	// fresh Coordinator instance (reloaded purely from the journal dir)
	// appearing at the same URL — exactly what workers would see across a
	// real process restart behind a stable address.
	var handler atomic.Value // *Coordinator
	coord1, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	handler.Store(coord1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(*Coordinator).ServeHTTP(w, r)
	}))
	defer srv.Close()
	client, err := NewClient(srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Stack rows always execute; most data rows would be synthesized at
	// prepare time and never reach a worker.
	spec := testSpec(inject.CampStack, nInject, 11)
	sub, err := client.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	// The fleet. Workers 0 and 1 are doomed: each dies (stops polling and
	// abandons its lease mid-stream) after streaming a few rows, leaving a
	// half-journaled chunk for lease expiry to recover.
	var (
		workers  [nWorkers]*Worker
		rowCount [nWorkers]atomic.Int64
		wg       sync.WaitGroup
	)
	for i := range nWorkers {
		i := i
		wcfg := WorkerConfig{
			Coordinator:  srv.URL,
			Name:         fmt.Sprintf("stress-w%d", i),
			PollInterval: 20 * time.Millisecond,
		}
		if i < 2 {
			deathRow := int64(4 + 3*i)
			wcfg.rowFault = func(campaignID string, idx int) error {
				if rowCount[i].Add(1) >= deathRow {
					workers[i].Stop()
					return fmt.Errorf("injected death of worker %d at row %d", i, idx)
				}
				return nil
			}
		}
		w, err := NewWorker(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	for i := range nWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := workers[i].Run(); err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
		}()
	}

	// Once the campaign is visibly under way, restart the coordinator.
	waitStatus(t, client, sub.ID, "mid-campaign progress",
		func(st Status) bool {
			return st.State == StateDone || (st.State == StateRunning && st.Done >= nInject/4)
		})
	coord1.Close()
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	handler.Store(coord2)

	st := waitStatus(t, client, sub.ID, "done after restart",
		func(st Status) bool { return st.State == StateDone })
	if st.Done != nInject {
		t.Fatalf("final status %+v, want %d/%d", st, nInject, nInject)
	}

	// Drain so the surviving workers' Run loops exit, then join the fleet.
	if _, err := client.Drain(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if rowCount[0].Load() == 0 || rowCount[1].Load() == 0 {
		t.Fatal("doomed workers never ran a row; the death injection tested nothing")
	}

	wantTable, wantBytes := farmRun(t, spec)
	assertTableEqual(t, client, sub.ID, wantTable, wantBytes)
}
