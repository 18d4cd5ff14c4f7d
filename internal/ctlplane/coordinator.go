package ctlplane

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"kfi/internal/campaign"
	"kfi/internal/inject"
	"kfi/internal/kernel"
	"kfi/internal/stats"
)

// Config tunes a Coordinator.
type Config struct {
	// JournalDir is where campaigns persist: one CRC-framed outcome journal
	// plus one spec sidecar per campaign. Required; it is the coordinator's
	// entire durable state, so a coordinator restarted over the same
	// directory resumes every campaign idempotently.
	JournalDir string
	// LeaseTTL is how long a chunk lease lives without a heartbeat
	// (0 = default 30s). Workers beat at roughly a third of this.
	LeaseTTL time.Duration
	// ChunkSize caps the indices per lease (0 = auto: the execution order
	// split ~32 ways, at least 1 — several chunks per worker keep the lease
	// queue a load balancer the way the farm's steal queue is).
	ChunkSize int
	// Clock injects time for tests (nil = SystemClock).
	Clock Clock
	// Logf, when set, receives one line per notable event.
	Logf func(format string, args ...any)
}

const defaultLeaseTTL = 30 * time.Second

// Coordinator is the campaign-as-a-service control plane: it validates and
// persists submissions, plans each campaign's trigger schedule, leases
// chunks to workers with heartbeat expiry, journals every streamed outcome
// row exactly once, and finalizes each campaign's journal in canonical
// (index-sorted) form so distributed runs are byte-comparable to
// single-process ones.
type Coordinator struct {
	cfg   Config
	clock Clock
	mux   *http.ServeMux

	mu         sync.Mutex
	campaigns  map[string]*campaignState
	leaseOwner map[string]string // lease ID -> campaign ID
	draining   bool
	closed     bool
	crashes    CrashSummary

	// buildSem serializes guest-system builds: preparing several campaigns
	// at once would multiply peak memory for no throughput gain.
	buildSem chan struct{}
	// prepared, when set (tests), is called after each prepare attempt.
	prepared func(id string)
}

// campaignState is one campaign's in-memory state; its mutex guards every
// field below the identity block. The durable truth is the journal — this
// struct is reconstructible from it plus the spec sidecar.
type campaignState struct {
	id   string
	spec Spec
	res  Resolved

	mu         sync.Mutex
	state      State
	errMsg     string
	header     campaign.Header
	golden     uint32
	total      int
	done       map[int]inject.Result
	counts     stats.Counts
	duplicates int
	queue      *chunkQueue
	journal    *campaign.Journal
	cancelled  bool
}

// NewCoordinator builds a coordinator over a journal directory, reloading
// every campaign recorded there: finished campaigns come back Done without
// rebuilding anything (their canonical journal is complete), unfinished ones
// are queued to resume from their journaled prefix.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.JournalDir == "" {
		return nil, errors.New("ctlplane: Config.JournalDir is required")
	}
	if err := os.MkdirAll(cfg.JournalDir, 0o755); err != nil {
		return nil, err
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	c := &Coordinator{
		cfg:        cfg,
		clock:      cfg.Clock,
		campaigns:  make(map[string]*campaignState),
		leaseOwner: make(map[string]string),
		buildSem:   make(chan struct{}, 1),
	}
	if c.clock == nil {
		c.clock = SystemClock{}
	}
	c.mux = http.NewServeMux()
	c.routes()
	if err := c.reload(); err != nil {
		return nil, err
	}
	return c, nil
}

// ServeHTTP serves the control-plane API.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// Close marks the coordinator closed and closes every open journal. It does
// not wait for in-flight prepares; they observe the closed flag and abort.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	states := make([]*campaignState, 0, len(c.campaigns))
	for _, st := range c.campaigns {
		states = append(states, st)
	}
	c.mu.Unlock()
	var first error
	for _, st := range states {
		st.mu.Lock()
		if st.journal != nil {
			if err := st.journal.Close(); err != nil && first == nil {
				first = err
			}
			st.journal = nil
		}
		st.mu.Unlock()
	}
	return first
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// --- persistence ---

func (c *Coordinator) journalPath(id string) string {
	return filepath.Join(c.cfg.JournalDir, id+".kjournal")
}

func (c *Coordinator) specPath(id string) string {
	return filepath.Join(c.cfg.JournalDir, id+".spec.json")
}

// writeSpec persists the spec sidecar atomically; it is what lets a
// restarted coordinator re-derive a campaign the journal header alone
// cannot (the header has no workload scale or retry policy).
func (c *Coordinator) writeSpec(id string, spec Spec) error {
	data, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	tmp := c.specPath(id) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, c.specPath(id))
}

// reload rebuilds the campaign set from the journal directory. A spec
// sidecar carrying a field Spec does not define was written by a build whose
// campaign identity differs from this one's: admitting it under the ID this
// build derives would start a duplicate of the campaign its journal holds,
// so reload refuses it, as ResumeJournal refuses unknown header fields.
func (c *Coordinator) reload() error {
	entries, err := os.ReadDir(c.cfg.JournalDir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".spec.json") {
			continue
		}
		path := filepath.Join(c.cfg.JournalDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec Spec
		if err := dec.Decode(&spec); err != nil {
			return fmt.Errorf("ctlplane: spec sidecar %s: %w", path, err)
		}
		if _, _, err := c.admit(spec); err != nil {
			return fmt.Errorf("ctlplane: reloading %s: %w", name, err)
		}
	}
	return nil
}

// admit validates a spec and installs (or finds) its campaign, queueing
// preparation when the campaign is not already complete on disk. It returns
// the campaign and whether it already existed in memory.
func (c *Coordinator) admit(spec Spec) (*campaignState, bool, error) {
	res, err := spec.Resolve()
	if err != nil {
		return nil, false, err
	}
	id, err := spec.ID()
	if err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	if st, ok := c.campaigns[id]; ok {
		c.mu.Unlock()
		return st, true, nil
	}
	st := &campaignState{id: id, spec: spec, res: res, state: StateQueued,
		total: spec.N, done: make(map[int]inject.Result), queue: newChunkQueue()}
	c.campaigns[id] = st
	c.mu.Unlock()

	if err := c.writeSpec(id, spec); err != nil {
		return nil, false, err
	}
	// A campaign whose journal already records every outcome needs no guest
	// system: load it straight to Done.
	if h, completed, err := campaign.ReadJournal(c.journalPath(id)); err == nil && len(completed) >= spec.N {
		st.mu.Lock()
		st.header, st.golden, st.done = h, h.Golden, completed
		st.counts = summarizeDone(completed)
		st.state = StateDone
		st.mu.Unlock()
		c.logf("campaign %s: reloaded complete (%d outcomes)", id, len(completed))
		return st, false, nil
	}
	go c.prepare(st)
	return st, false, nil
}

func summarizeDone(done map[int]inject.Result) stats.Counts {
	var counts stats.Counts
	for _, r := range done {
		counts.Add(r)
	}
	return counts
}

// --- preparation ---

// prepare builds the campaign's guest system, plans its trigger schedule,
// opens (or resumes) its journal, journals the plan's synthesized results,
// and chunks the remaining execution order for leasing.
func (c *Coordinator) prepare(st *campaignState) {
	c.buildSem <- struct{}{}
	defer func() { <-c.buildSem }()
	defer func() {
		if c.prepared != nil {
			c.prepared(st.id)
		}
	}()

	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	st.mu.Lock()
	if closed || st.cancelled || st.state != StateQueued {
		st.mu.Unlock()
		return
	}
	st.state = StatePreparing
	res := st.res
	st.mu.Unlock()

	fail := func(err error) {
		st.mu.Lock()
		if !st.state.Terminal() {
			st.state, st.errMsg = StateFailed, err.Error()
		}
		st.mu.Unlock()
		c.logf("campaign %s: failed: %v", st.id, err)
	}

	nr, err := campaign.NewNodeRunner(res.Platform, res.Scale, kernel.Options{Harden: res.Harden})
	if err != nil {
		fail(err)
		return
	}
	plan, err := nr.Plan(res.Spec)
	if err != nil {
		fail(err)
		return
	}
	header := campaign.HeaderFor(res.Platform, nr.Golden(), res.Spec)
	if res.Harden.Enabled() {
		header.Harden = res.Harden.String()
	}
	journal, completed, err := campaign.ResumeJournal(c.journalPath(st.id), header)
	if err != nil {
		fail(err)
		return
	}

	st.mu.Lock()
	if st.cancelled {
		st.mu.Unlock()
		journal.Close()
		return
	}
	st.header, st.golden, st.journal = header, nr.Golden(), journal
	for idx, r := range completed {
		st.done[idx] = r
		st.counts.Add(r)
	}
	// The plan's synthesized results (code targets the golden run never
	// reaches) complete without execution; journal the missing ones now, in
	// index order.
	preIdxs := make([]int, 0, len(plan.Pre))
	for idx := range plan.Pre {
		if _, ok := st.done[idx]; !ok {
			preIdxs = append(preIdxs, idx)
		}
	}
	sort.Ints(preIdxs)
	for _, idx := range preIdxs {
		r := plan.Pre[idx]
		if err := journal.Append(idx, r); err != nil {
			st.mu.Unlock()
			fail(err)
			return
		}
		st.done[idx] = r
		st.counts.Add(r)
	}
	// Chunk the unfinished execution order.
	var order []int
	for _, idx := range plan.Order {
		if _, ok := st.done[idx]; !ok {
			order = append(order, idx)
		}
	}
	size := c.cfg.ChunkSize
	if size <= 0 {
		size = max(len(order)/32, 1)
	}
	for lo := 0; lo < len(order); lo += size {
		st.queue.push(order[lo:min(lo+size, len(order))])
	}
	if len(st.done) >= st.total {
		c.finalizeLocked(st)
		st.mu.Unlock()
		return
	}
	st.state = StateRunning
	st.mu.Unlock()
	c.logf("campaign %s: running — %d/%d journaled, %d chunk(s) of ≤%d",
		st.id, len(st.done), st.total, (len(order)+size-1)/size, size)
}

// finalizeLocked completes a campaign: the append-order working journal is
// rewritten in canonical index order (atomically, via rename), so every run
// of this spec — in-process farm, this service, a resumed restart — leaves
// byte-identical durable bytes. Caller holds st.mu.
func (c *Coordinator) finalizeLocked(st *campaignState) {
	if st.journal != nil {
		st.journal.Close()
		st.journal = nil
	}
	canon, err := campaign.CanonicalJournalBytes(st.header, st.done)
	if err != nil {
		st.state, st.errMsg = StateFailed, err.Error()
		return
	}
	tmp := c.journalPath(st.id) + ".tmp"
	if err := os.WriteFile(tmp, canon, 0o644); err != nil {
		st.state, st.errMsg = StateFailed, err.Error()
		return
	}
	if err := os.Rename(tmp, c.journalPath(st.id)); err != nil {
		st.state, st.errMsg = StateFailed, err.Error()
		return
	}
	st.state = StateDone
	c.logf("campaign %s: done (%d outcomes)", st.id, len(st.done))
}

// --- lease bookkeeping ---

// sweepLocked expires overdue leases on one campaign. Caller holds st.mu.
func (c *Coordinator) sweepLocked(st *campaignState, now time.Time) {
	expired := st.queue.sweep(now, func(idx int) bool {
		_, ok := st.done[idx]
		return ok
	})
	for _, id := range expired {
		c.mu.Lock()
		delete(c.leaseOwner, id)
		c.mu.Unlock()
		c.logf("campaign %s: lease %s expired, chunk requeued", st.id, id)
	}
}

// statusLocked renders a campaign's Status. Caller holds st.mu.
func (st *campaignState) statusLocked() Status {
	pending, leased := st.queue.counts()
	return Status{
		ID: st.id, Spec: st.spec, State: st.state, Golden: st.golden,
		Done: len(st.done), Total: st.total, Counts: st.counts,
		Pending: pending, Leased: leased, Duplicates: st.duplicates,
		Err: st.errMsg,
	}
}

// snapshot returns the campaign list sorted for listings, sweeping expiry
// as a side effect so status reads never show a dead worker still holding a
// lease.
func (c *Coordinator) snapshot() []Status {
	now := c.clock.Now()
	c.mu.Lock()
	states := make([]*campaignState, 0, len(c.campaigns))
	for _, st := range c.campaigns {
		states = append(states, st)
	}
	c.mu.Unlock()
	out := make([]Status, 0, len(states))
	for _, st := range states {
		st.mu.Lock()
		if st.state == StateRunning {
			c.sweepLocked(st, now)
		}
		out = append(out, st.statusLocked())
		st.mu.Unlock()
	}
	SortStatuses(out)
	return out
}
