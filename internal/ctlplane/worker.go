package ctlplane

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/inject"
	"kfi/internal/kernel"
)

// WorkerConfig tunes a worker agent.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL (any form the -coordinator
	// flag accepts).
	Coordinator string
	// Name identifies the worker in leases and logs.
	Name string
	// PollInterval is the idle delay between lease requests (0 = 2s).
	PollInterval time.Duration
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)

	// rowFault, when set (tests), runs before each completed row is
	// streamed; a non-nil error abandons the chunk mid-stream, simulating a
	// worker dying with the lease half done.
	rowFault func(campaignID string, idx int) error
}

const defaultPollInterval = 2 * time.Second

// Worker is the agent side of the control plane: it polls the coordinator
// for chunk leases, runs each leased chunk through a NodeRunner (the same
// execution core as one farm node), and streams completed rows back while a
// background heartbeat keeps the lease alive. Guest systems and plans are
// cached per campaign, so successive leases of one campaign reuse the
// node's forward-advancing snapshot chain.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	stopped atomic.Bool

	mu    sync.Mutex
	nodes map[string]*workerNode
}

// workerNode is one campaign's cached execution state on this worker.
type workerNode struct {
	nr   *campaign.NodeRunner
	plan *campaign.Plan
	res  Resolved
}

// NewWorker builds a worker agent for the given coordinator.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	client, err := NewClient(cfg.Coordinator)
	if err != nil {
		return nil, err
	}
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = defaultPollInterval
	}
	return &Worker{cfg: cfg, client: client, nodes: make(map[string]*workerNode)}, nil
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

// Stop makes the worker exit after its current chunk (checked between rows
// and between polls).
func (w *Worker) Stop() { w.stopped.Store(true) }

// Close releases every cached guest system's snapshot chain.
func (w *Worker) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, n := range w.nodes {
		n.nr.Close()
		delete(w.nodes, id)
	}
}

// Run polls for leases and executes them until the coordinator drains or
// Stop is called. Transient coordinator errors (it may be restarting) are
// retried at the poll interval, not fatal: the durable campaign state is on
// the coordinator, so a worker's only sound move is to keep polling.
func (w *Worker) Run() error {
	defer w.Close()
	for !w.stopped.Load() {
		lease, err := w.client.Lease(w.cfg.Name)
		if err != nil {
			w.logf("lease poll: %v", err)
			time.Sleep(w.cfg.PollInterval)
			continue
		}
		if lease.Drain {
			w.logf("coordinator draining; exiting")
			return nil
		}
		if lease.NoWork {
			time.Sleep(w.cfg.PollInterval)
			continue
		}
		if err := w.runLease(lease); err != nil {
			w.logf("lease %s: %v", lease.LeaseID, err)
			time.Sleep(w.cfg.PollInterval)
		}
	}
	return nil
}

// node returns (building and caching if needed) the execution state for a
// campaign. The build re-derives everything from the spec — two machines
// never ship guest state to each other, they deterministically reconstruct
// it.
func (w *Worker) node(campaignID string, spec Spec) (*workerNode, error) {
	w.mu.Lock()
	n := w.nodes[campaignID]
	w.mu.Unlock()
	if n != nil {
		return n, nil
	}
	res, err := spec.Resolve()
	if err != nil {
		return nil, err
	}
	w.logf("campaign %s: building %s guest (scale %d, harden %v)", campaignID, spec.Platform, res.Scale, res.Harden)
	nr, err := campaign.NewNodeRunner(res.Platform, res.Scale, kernel.Options{Harden: res.Harden})
	if err != nil {
		return nil, err
	}
	plan, err := nr.Plan(res.Spec)
	if err != nil {
		nr.Close()
		return nil, err
	}
	n = &workerNode{nr: nr, plan: plan, res: res}
	w.mu.Lock()
	w.nodes[campaignID] = n
	w.mu.Unlock()
	return n, nil
}

// errLeaseLost aborts a chunk whose lease the coordinator reclaimed.
var errLeaseLost = errors.New("lease lost")

// runLease executes one leased chunk and streams its rows.
func (w *Worker) runLease(lease LeaseResponse) error {
	n, err := w.node(lease.CampaignID, lease.Spec)
	if err != nil {
		// A build or plan failure is not machine-local — every worker
		// re-deriving this spec will fail the same way — so report it
		// rather than letting the lease bounce between workers forever.
		w.client.ReportError(lease.CampaignID, ErrorReport{
			LeaseID: lease.LeaseID, Worker: w.cfg.Name,
			Msg: fmt.Sprintf("building campaign node: %v", err)})
		return err
	}
	if n.nr.Golden() != lease.Golden {
		err := fmt.Errorf("golden checksum mismatch: worker %08x, coordinator %08x",
			n.nr.Golden(), lease.Golden)
		w.client.ReportError(lease.CampaignID, ErrorReport{
			LeaseID: lease.LeaseID, Worker: w.cfg.Name, Msg: err.Error()})
		return err
	}

	// Heartbeat in the background for as long as the chunk runs.
	var lost atomic.Bool
	hbStop := make(chan struct{})
	defer close(hbStop)
	interval := time.Duration(lease.HeartbeatMillis) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-t.C:
				hb, err := w.client.Heartbeat(lease.LeaseID, w.cfg.Name)
				if err == nil && hb.Lost {
					lost.Store(true)
					return
				}
			}
		}
	}()

	opts := campaign.ExecOptions{MaxAttempts: n.res.Retries}
	sum, err := w.client.StreamResults(lease.CampaignID, lease.LeaseID,
		func(send func(idx int, res inject.Result) error) error {
			return n.nr.RunIndices(n.plan, lease.Indices, opts,
				func(idx int, res inject.Result) error {
					if lost.Load() {
						return errLeaseLost
					}
					if w.stopped.Load() {
						return errLeaseLost
					}
					if w.cfg.rowFault != nil {
						if err := w.cfg.rowFault(lease.CampaignID, idx); err != nil {
							return err
						}
					}
					return send(idx, res)
				})
		})
	if err != nil {
		if errors.Is(err, errLeaseLost) {
			// The coordinator requeued the chunk; sent rows are journaled,
			// the rest will re-run elsewhere. Not an error for this worker.
			w.logf("lease %s: reclaimed by coordinator, chunk abandoned", lease.LeaseID)
			return nil
		}
		return err
	}
	w.logf("lease %s: streamed %d row(s), %d duplicate(s)",
		lease.LeaseID, sum.Accepted, sum.Duplicates)
	return nil
}
