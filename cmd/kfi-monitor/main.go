// Kfi-monitor is the control host's crash-data collector (the paper's
// "monitoring machine"): it listens for the UDP crash packets the guest
// kernel's embedded crash handler emits at the moment of failure and prints
// one line per crash, plus a running cause distribution on exit.
//
// Pair it with kfi-campaign's -crashnet flag:
//
//	kfi-monitor -listen 127.0.0.1:9377 &
//	kfi-campaign -platform g4 -campaign code -n 200 -crashnet 127.0.0.1:9377
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"sort"

	"kfi/internal/cli"
	"kfi/internal/crashnet"
	"kfi/internal/isa"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-monitor:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-monitor", flag.ContinueOnError)
	var (
		listen = fs.String("listen", "127.0.0.1:9377", "UDP address to collect crash packets on")
		count  = fs.Int("count", 0, "exit after this many packets (0 = run until killed)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *count < 0 {
		return fmt.Errorf("-count must be >= 0, got %d", *count)
	}
	addr, err := cli.ParseListenAddr(*listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	coll, err := crashnet.NewUDPCollector(addr)
	if err != nil {
		return err
	}
	defer coll.Close()
	fmt.Fprintf(w, "collecting crash packets on %s\n", coll.Addr())
	return collect(coll, *count, w)
}

// collect drains packets until count is reached (or forever when count is
// zero), printing each crash and a final summary. A collector outlives its
// inputs' noise: malformed datagrams and transient socket errors are skipped,
// and a closed socket ends collection gracefully with the summary — a
// campaign's worth of collected crashes must never be discarded over one bad
// read.
func collect(coll *crashnet.UDPCollector, count int, w io.Writer) error {
	causes := make(map[isa.CrashCause]int)
	received := 0
	summary := func() {
		type kv struct {
			c isa.CrashCause
			n int
		}
		var dist []kv
		for c, n := range causes {
			dist = append(dist, kv{c, n})
		}
		sort.Slice(dist, func(i, j int) bool {
			if dist[i].n != dist[j].n {
				return dist[i].n > dist[j].n
			}
			return dist[i].c < dist[j].c
		})
		fmt.Fprintf(w, "\n%d crashes collected:\n", received)
		for _, d := range dist {
			fmt.Fprintf(w, "  %-22s %5.1f%%  (%d)\n", d.c, 100*float64(d.n)/float64(received), d.n)
		}
	}
	for count == 0 || received < count {
		pkt, err := coll.RecvWait()
		if err != nil {
			if errors.Is(err, crashnet.ErrMalformed) || crashnet.Transient(err) {
				continue // noise or a momentary stall: keep collecting
			}
			summary()
			if errors.Is(err, net.ErrClosed) {
				return nil // socket closed under us: a normal shutdown
			}
			return err
		}
		received++
		causes[pkt.Cause]++
		fmt.Fprintf(w, "#%04d %-16s %-22s pc=0x%08X addr=0x%08X sp=0x%08X cycles=%d\n",
			pkt.Seq, pkt.Platform.Short(), pkt.Cause, pkt.PC, pkt.FaultAddr, pkt.SP, pkt.Cycles)
	}
	summary()
	return nil
}
