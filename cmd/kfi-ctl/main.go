// Kfi-ctl operates the campaign control plane: it runs the coordinator and
// worker-agent roles of internal/ctlplane and offers the operator verbs for
// a running service.
//
//	kfi-ctl serve -listen 127.0.0.1:9380 -journal /var/kfi/journals
//	kfi-ctl work  -coordinator 127.0.0.1:9380 -name worker-a
//	kfi-ctl status -coordinator 127.0.0.1:9380
//	kfi-ctl watch  -coordinator 127.0.0.1:9380 <campaign-id>
//	kfi-ctl cancel -coordinator 127.0.0.1:9380 <campaign-id>
//	kfi-ctl drain  -coordinator 127.0.0.1:9380
//
// Campaigns are submitted with `kfi-campaign -submit -coordinator=URL ...`,
// which derives the same per-(platform, campaign) specs a local run would
// execute. The serve journal directory is the campaigns' results record:
// `kfi-report /var/kfi/journals` renders its tables. Workers run every
// leased chunk on the basic-block translator; there is no engine choice.
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sort"
	"time"

	"kfi/internal/cli"
	"kfi/internal/ctlplane"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kfi-ctl:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: kfi-ctl <serve|work|status|watch|cancel|drain> [flags]")
}

func run(args []string, w io.Writer) error {
	if len(args) == 0 {
		return usage()
	}
	verb, rest := args[0], args[1:]
	switch verb {
	case "serve":
		return serve(rest, w)
	case "work":
		return work(rest, w)
	case "status":
		return status(rest, w)
	case "watch":
		return watch(rest, w)
	case "cancel":
		return cancel(rest, w)
	case "drain":
		return drain(rest, w)
	}
	return usage()
}

// coordinatorClient parses the shared -coordinator flag and builds a client.
func coordinatorClient(fs *flag.FlagSet) (*ctlplane.Client, error) {
	coord := fs.Lookup("coordinator").Value.String()
	client, err := ctlplane.NewClient(coord)
	if err != nil {
		return nil, fmt.Errorf("-coordinator: %w", err)
	}
	return client, nil
}

func serve(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl serve", flag.ContinueOnError)
	var (
		listen   = fs.String("listen", "127.0.0.1:9380", "HTTP address to serve the control plane on")
		journal  = fs.String("journal", "", "directory for campaign journals and spec sidecars (required)")
		leaseTTL = fs.Duration("lease-ttl", 30*time.Second, "chunk lease lifetime without a heartbeat")
		chunk    = fs.Int("chunk", 0, "indices per lease (0 = auto)")
		quiet    = fs.Bool("quiet", false, "suppress per-event log lines")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	addr, err := cli.ParseListenAddr(*listen)
	if err != nil {
		return fmt.Errorf("-listen: %w", err)
	}
	if *journal == "" {
		return fmt.Errorf("-journal is required (it is the coordinator's durable state)")
	}
	cfg := ctlplane.Config{JournalDir: *journal, LeaseTTL: *leaseTTL, ChunkSize: *chunk}
	if !*quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(w, "kfi-ctl: "+format+"\n", args...)
		}
	}
	coord, err := ctlplane.NewCoordinator(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "coordinator serving on http://%s (journals in %s)\n", ln.Addr(), *journal)
	return http.Serve(ln, coord)
}

func work(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl work", flag.ContinueOnError)
	var (
		_    = fs.String("coordinator", "", "coordinator base URL (required)")
		name = fs.String("name", "", "worker name for leases and logs (default host/pid derived)")
		poll = fs.Duration("poll", 2*time.Second, "idle delay between lease polls")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	wname := *name
	if wname == "" {
		host, _ := os.Hostname()
		wname = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	client, err := coordinatorClient(fs)
	if err != nil {
		return err
	}
	worker, err := ctlplane.NewWorker(ctlplane.WorkerConfig{
		Coordinator:  client.Base,
		Name:         wname,
		PollInterval: *poll,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(w, "kfi-ctl[%s]: "+format+"\n", append([]any{wname}, args...)...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "worker %s polling %s\n", wname, client.Base)
	return worker.Run()
}

func status(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl status", flag.ContinueOnError)
	_ = fs.String("coordinator", "", "coordinator base URL (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := coordinatorClient(fs)
	if err != nil {
		return err
	}
	if id := fs.Arg(0); id != "" {
		st, err := client.Status(id)
		if err != nil {
			return err
		}
		printStatus(w, st)
		return nil
	}
	svc, err := client.Service()
	if err != nil {
		return err
	}
	if svc.Draining {
		fmt.Fprintln(w, "service: DRAINING (no new leases)")
	}
	if len(svc.Campaigns) == 0 {
		fmt.Fprintln(w, "no campaigns")
	}
	for _, st := range svc.Campaigns {
		printStatus(w, st)
	}
	if svc.Crashes.Received > 0 {
		fmt.Fprintf(w, "crash telemetry: %d report(s)\n", svc.Crashes.Received)
		causes := make([]string, 0, len(svc.Crashes.ByCause))
		for c := range svc.Crashes.ByCause {
			causes = append(causes, c)
		}
		sort.Strings(causes)
		for _, c := range causes {
			fmt.Fprintf(w, "  %-22s %d\n", c, svc.Crashes.ByCause[c])
		}
	}
	return nil
}

func printStatus(w io.Writer, st ctlplane.Status) {
	fmt.Fprintf(w, "%-28s %-9s %6d/%-6d chunks: %d pending, %d leased",
		st.ID, st.State, st.Done, st.Total, st.Pending, st.Leased)
	if st.Spec.Harden != "" {
		fmt.Fprintf(w, ", hardened (%s)", st.Spec.Harden)
	}
	if st.Counts.Detected > 0 {
		fmt.Fprintf(w, ", %d detected", st.Counts.Detected)
	}
	if st.Duplicates > 0 {
		fmt.Fprintf(w, ", %d dup rows", st.Duplicates)
	}
	if st.Err != "" {
		fmt.Fprintf(w, "  err: %s", st.Err)
	}
	fmt.Fprintln(w)
}

func watch(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl watch", flag.ContinueOnError)
	var (
		_        = fs.String("coordinator", "", "coordinator base URL (required)")
		interval = fs.Duration("interval", 2*time.Second, "poll interval")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := coordinatorClient(fs)
	if err != nil {
		return err
	}
	id := fs.Arg(0)
	if id == "" {
		return fmt.Errorf("usage: kfi-ctl watch -coordinator URL <campaign-id>")
	}
	for {
		st, err := client.Status(id)
		if err != nil {
			return err
		}
		printStatus(w, st)
		if st.State.Terminal() {
			if st.State != ctlplane.StateDone {
				return fmt.Errorf("campaign %s ended %s: %s", id, st.State, st.Err)
			}
			return nil
		}
		time.Sleep(*interval)
	}
}

func cancel(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl cancel", flag.ContinueOnError)
	_ = fs.String("coordinator", "", "coordinator base URL (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := coordinatorClient(fs)
	if err != nil {
		return err
	}
	id := fs.Arg(0)
	if id == "" {
		return fmt.Errorf("usage: kfi-ctl cancel -coordinator URL <campaign-id>")
	}
	st, err := client.Cancel(id)
	if err != nil {
		return err
	}
	printStatus(w, st)
	return nil
}

func drain(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("kfi-ctl drain", flag.ContinueOnError)
	_ = fs.String("coordinator", "", "coordinator base URL (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	client, err := coordinatorClient(fs)
	if err != nil {
		return err
	}
	svc, err := client.Drain()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "draining; %d campaign(s) on record\n", len(svc.Campaigns))
	return nil
}
