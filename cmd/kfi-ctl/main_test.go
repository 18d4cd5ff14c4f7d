package main

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"kfi/internal/ctlplane"
)

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                                    // no verb
		{"frobnicate"},                        // unknown verb
		{"serve", "-listen", "nope"},          // bad listen address
		{"serve", "-listen", "127.0.0.1:0"},   // missing -journal
		{"work", "-coordinator", "ftp://x:1"}, // bad coordinator scheme
		{"status", "-coordinator", ""},        // missing coordinator
		{"watch", "-coordinator", ""},
		{"cancel", "-coordinator", ""},
		{"drain", "-coordinator", ""},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%q) succeeded, want error", args)
		}
	}
}

// TestWorkEngineFlagRemoved: workers run every leased chunk on the
// translator, so kfi-ctl work has no -engine flag.
func TestWorkEngineFlagRemoved(t *testing.T) {
	var out strings.Builder
	err := run([]string{"work", "-coordinator", "127.0.0.1:9380", "-engine", "translate"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -engine") {
		t.Errorf("work -engine: error %v, want an unknown -engine flag", err)
	}
}

// testService spins up a coordinator and returns its base URL.
func testService(t *testing.T) string {
	t.Helper()
	coord, err := ctlplane.NewCoordinator(ctlplane.Config{JournalDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(coord)
	t.Cleanup(func() { srv.Close(); coord.Close() })
	return srv.URL
}

func TestStatusWatchCancelDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a guest system")
	}
	base := testService(t)
	client, err := ctlplane.NewClient(base)
	if err != nil {
		t.Fatal(err)
	}

	var out strings.Builder
	if err := run([]string{"status", "-coordinator", base}, &out); err != nil {
		t.Fatalf("status on empty service: %v", err)
	}
	if !strings.Contains(out.String(), "no campaigns") {
		t.Errorf("empty-service status output %q", out.String())
	}

	sub, err := client.Submit(ctlplane.Spec{Platform: "p4", Campaign: "stack", N: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	// The coordinator only leases work; a worker must run the injections for
	// watch to ever see the campaign finish.
	worker, err := ctlplane.NewWorker(ctlplane.WorkerConfig{
		Coordinator:  base,
		Name:         "ctl-test-worker",
		PollInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run() }()
	defer worker.Stop()

	out.Reset()
	if err := run([]string{"watch", "-coordinator", base, "-interval", "5ms", sub.ID}, &out); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "done") {
		t.Errorf("watch output never showed done:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"status", "-coordinator", base, sub.ID}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), sub.ID) {
		t.Errorf("single-campaign status output %q lacks the ID", out.String())
	}

	// Cancelling a finished campaign reports its (terminal) status.
	out.Reset()
	if err := run([]string{"cancel", "-coordinator", base, sub.ID}, &out); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	if err := run([]string{"drain", "-coordinator", base}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "draining") {
		t.Errorf("drain output %q", out.String())
	}
	if _, err := client.Submit(ctlplane.Spec{Platform: "p4", Campaign: "data", N: 4, Seed: 5}); err == nil {
		t.Error("submit succeeded after drain")
	}
	// Drain tells the worker's Run loop to exit cleanly.
	if err := <-workerDone; err != nil {
		t.Errorf("worker exited with %v", err)
	}
}
