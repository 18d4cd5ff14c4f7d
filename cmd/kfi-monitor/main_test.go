package main

import (
	"strings"
	"sync"
	"testing"
	"time"

	"kfi/internal/crashnet"
	"kfi/internal/isa"
)

func TestCollectPrintsAndSummarizes(t *testing.T) {
	coll, err := crashnet.NewUDPCollector("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()
	sender, err := crashnet.NewUDPSender(coll.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()

	pkts := []crashnet.Packet{
		{Seq: 1, Platform: isa.CISC, Cause: isa.CauseNULLPointer, PC: 0x1234, Cycles: 999},
		{Seq: 2, Platform: isa.CISC, Cause: isa.CauseNULLPointer, PC: 0x1238, Cycles: 1500},
		{Seq: 3, Platform: isa.RISC, Cause: isa.CauseBadArea, PC: 0x2000, FaultAddr: 0x4D, Cycles: 77},
	}
	for _, p := range pkts {
		p := p
		if err := sender.Send(p); err != nil {
			t.Fatal(err)
		}
	}

	var out strings.Builder
	if err := collect(coll, len(pkts), &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"NULL Pointer", "Bad Area", "3 crashes collected", "addr=0x0000004D"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The dominant cause leads the summary.
	if !strings.Contains(got, "66.7%") ||
		strings.Index(got, "NULL Pointer") > strings.Index(got, "66.7%") {
		t.Errorf("summary percentage missing or misordered:\n%s", got)
	}
}

func TestRunRejectsBadAddress(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-listen", "not-an-address"}, &out); err == nil {
		t.Error("bad listen address accepted")
	}
}

// TestRunRejectsNegativeCount: a negative -count is refused before binding
// rather than collecting nothing and exiting 0.
func TestRunRejectsNegativeCount(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-listen", "127.0.0.1:0", "-count", "-1"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-count must be >= 0") {
		t.Errorf("run(-count -1): error %v, want -count refused", err)
	}
	if out.Len() != 0 {
		t.Errorf("run(-count -1) printed %q before refusing", out.String())
	}
}

// TestForwardFlagRemoved: crash reports are collected on this host only.
func TestForwardFlagRemoved(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-forward", "http://127.0.0.1:9380"}, &out)
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -forward") {
		t.Errorf("run(-forward): error %v, want an unknown flag", err)
	}
}

// syncBuffer is a goroutine-safe writer for driving run() concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunListensAndExitsAfterCount(t *testing.T) {
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-listen", "127.0.0.1:0", "-count", "2"}, &out)
	}()

	// Wait for the banner with the bound address.
	var addr string
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if s := out.String(); strings.Contains(s, "collecting crash packets on ") {
			line := strings.SplitN(s, "collecting crash packets on ", 2)[1]
			addr = strings.TrimSpace(strings.SplitN(line, "\n", 2)[0])
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if addr == "" {
		t.Fatal("monitor never announced its address")
	}
	snd, err := crashnet.NewUDPSender(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer snd.Close()
	for seq := uint32(1); seq <= 2; seq++ {
		if err := snd.Send(crashnet.Packet{Seq: seq, Platform: isa.CISC,
			Cause: isa.CauseBadPaging, Cycles: 10}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("monitor did not exit after -count packets")
	}
	if got := out.String(); !strings.Contains(got, "2 crashes collected") {
		t.Errorf("summary missing:\n%s", got)
	}
}
