// Package ctlplane is the campaign control plane: a networked coordinator
// that accepts campaign submissions, shards their trigger space into chunks,
// and leases the chunks to worker machines, each of which wraps the
// per-node execution core exported by internal/campaign. It promotes the
// in-process farm's dynamic chunk stealing to machine scale — leases with
// heartbeat-based expiry play the role of the steal queue, the CRC-framed
// outcome journal plays the role of process memory — so a campaign survives
// the loss of any worker machine, and a coordinator restart, with a final
// outcome table byte-identical to a single-process farm run of the same
// spec.
//
// The wire protocol is deliberately plain: JSON request/response bodies over
// net/http (no dependencies beyond the standard library), plus one streaming
// direction — workers ship completed outcome rows as journal frames
// (internal/campaign.Frame) over a chunked POST body, so the coordinator
// persists exactly the bytes a single-process journal append would have
// produced and a connection torn by a dying worker damages at most the
// in-flight frame.
//
// Endpoints (all rooted at /v1):
//
//	POST /v1/campaigns              submit (idempotent by campaign ID)
//	GET  /v1/campaigns              list campaign statuses + service state
//	GET  /v1/campaigns/{id}         one campaign's status
//	GET  /v1/campaigns/{id}/results completed outcome rows, journal-framed
//	POST /v1/campaigns/{id}/cancel  cancel a queued or running campaign
//	POST /v1/campaigns/{id}/error   worker-reported fatal campaign error
//	POST /v1/lease                  request a chunk lease
//	POST /v1/heartbeat              extend a lease
//	POST /v1/campaigns/{id}/results (POST form) stream leased chunk results
//	POST /v1/drain                  stop handing out new leases
//	POST /v1/crash                  crashnet telemetry (kfi-monitor -forward)
package ctlplane

import (
	"fmt"
	"hash/crc32"
	"sort"
	"strings"

	"kfi/internal/campaign"
	"kfi/internal/cli"
	"kfi/internal/core"
	"kfi/internal/inject"
	"kfi/internal/isa"
	"kfi/internal/kir"
	"kfi/internal/stats"
)

// Spec is the wire form of one campaign submission. Platform and Campaign
// travel as registry names so the coordinator validates them through the
// platform registry exactly like the CLIs do.
type Spec struct {
	Platform string `json:"platform"`
	Campaign string `json:"campaign"`
	N        int    `json:"n"`
	Seed     int64  `json:"seed"`
	Burst    uint8  `json:"burst,omitempty"`
	// Scale multiplies the benchmark workload (1 = standard).
	Scale int `json:"scale,omitempty"`
	// Retries bounds supervised attempts per injection (0 = default).
	Retries int `json:"retries,omitempty"`
	// Harden names the kernel hardening passes ("dup", "cfsig", "dup+cfsig");
	// empty runs the paper-faithful unhardened build. Every worker builds its
	// guest with the same passes, so the coordinator's golden cross-check
	// also pins the hardening configuration.
	Harden string `json:"harden,omitempty"`
}

// Resolved is a Spec validated against the platform registry.
type Resolved struct {
	Platform isa.Platform
	Spec     campaign.Spec
	Scale    int
	Retries  int
	Harden   kir.HardenOpts
}

// Resolve validates the wire spec: the platform and campaign must resolve
// through the registries, and the counts must be sane.
func (s Spec) Resolve() (Resolved, error) {
	p, err := cli.ParsePlatform(s.Platform)
	if err != nil {
		return Resolved{}, err
	}
	c, err := cli.ParseCampaign(s.Campaign)
	if err != nil {
		return Resolved{}, err
	}
	if s.N < 1 {
		return Resolved{}, fmt.Errorf("campaign size n must be >= 1, got %d", s.N)
	}
	if s.Burst > 8 {
		return Resolved{}, fmt.Errorf("burst must be in [0, 8], got %d", s.Burst)
	}
	scale := s.Scale
	if scale < 1 {
		scale = 1
	}
	if s.Retries < 0 {
		return Resolved{}, fmt.Errorf("retries must be >= 0, got %d", s.Retries)
	}
	harden, err := kir.ParseHardenOpts(s.Harden)
	if err != nil {
		return Resolved{}, err
	}
	return Resolved{
		Platform: p,
		Spec:     campaign.Spec{Campaign: c, N: s.N, Seed: s.Seed, Burst: s.Burst},
		Scale:    scale,
		Retries:  s.Retries,
		Harden:   harden,
	}, nil
}

// ID derives the campaign's identity: a deterministic function of every
// spec field, so resubmitting the same spec — by a retrying client, or after
// a coordinator restart — addresses the same campaign and resumes its
// journal instead of starting a duplicate. The human-readable prefix keys
// the journal file; the checksum makes distinct specs collide-resistant.
func (s Spec) ID() (string, error) {
	r, err := s.Resolve()
	if err != nil {
		return "", err
	}
	canon := fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d",
		strings.ToLower(r.Platform.Short()), campaignSlug(r.Spec.Campaign),
		s.N, s.Seed, s.Burst, r.Scale, r.Retries)
	if r.Harden.Enabled() {
		// Appended only when set, so every pre-hardening spec keeps the
		// campaign ID (and journal identity) it always had.
		canon += "|harden=" + r.Harden.String()
	}
	sum := crc32.Checksum([]byte(canon), crc32.MakeTable(crc32.Castagnoli))
	return fmt.Sprintf("%s-%s-%08x", strings.ToLower(r.Platform.Short()),
		campaignSlug(r.Spec.Campaign), sum), nil
}

// campaignSlug renders a campaign name as a file-safe token.
func campaignSlug(c inject.Campaign) string {
	return strings.ReplaceAll(strings.ToLower(c.String()), " ", "-")
}

// State is a campaign's lifecycle position on the coordinator.
type State string

// Campaign lifecycle states. Queued campaigns wait for the prepare worker;
// Preparing builds the guest system, plans the trigger schedule, and opens
// (or resumes) the journal; Running leases chunks to workers; the terminal
// states are Done, Failed, and Cancelled.
const (
	StateQueued    State = "queued"
	StatePreparing State = "preparing"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Status is one campaign's externally visible state.
type Status struct {
	ID    string `json:"id"`
	Spec  Spec   `json:"spec"`
	State State  `json:"state"`
	// Golden is the fault-free checksum, known once prepared.
	Golden uint32 `json:"golden,omitempty"`
	// Done counts journaled outcomes; Total is the campaign's size.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Counts is the live Table 5/6-style tally over journaled outcomes.
	Counts stats.Counts `json:"counts"`
	// Pending/Leased count the queue's chunks; Duplicates counts late rows
	// discarded because their trigger was already journaled.
	Pending    int `json:"pending_chunks"`
	Leased     int `json:"leased_chunks"`
	Duplicates int `json:"duplicate_rows,omitempty"`
	// Err carries the failure reason for StateFailed.
	Err string `json:"err,omitempty"`
}

// CrashSummary aggregates crashnet telemetry forwarded by kfi-monitor.
type CrashSummary struct {
	Received int            `json:"received"`
	ByCause  map[string]int `json:"by_cause,omitempty"`
}

// ServiceStatus is the coordinator's full external state.
type ServiceStatus struct {
	Draining  bool         `json:"draining"`
	Campaigns []Status     `json:"campaigns"`
	Crashes   CrashSummary `json:"crashes"`
}

// LeaseRequest asks for a chunk of work.
type LeaseRequest struct {
	// Worker names the requesting agent (diagnostics only; leases are keyed
	// by lease ID, not worker name).
	Worker string `json:"worker"`
}

// LeaseResponse grants a chunk lease, or reports why none was granted.
type LeaseResponse struct {
	// NoWork is set when no campaign currently has leasable chunks; Drain
	// additionally tells the worker the coordinator is shutting down and
	// polling is pointless.
	NoWork bool `json:"no_work,omitempty"`
	Drain  bool `json:"drain,omitempty"`

	LeaseID    string `json:"lease_id,omitempty"`
	CampaignID string `json:"campaign_id,omitempty"`
	Spec       Spec   `json:"spec,omitempty"`
	// Golden lets the worker cross-check that its independently built guest
	// is the coordinator's guest before running a single injection.
	Golden uint32 `json:"golden,omitempty"`
	// Indices are the chunk's target indices in trigger order.
	Indices []int `json:"indices,omitempty"`
	// HeartbeatMillis is the interval the worker must beat at to keep the
	// lease; missing roughly two beats forfeits it.
	HeartbeatMillis int64 `json:"heartbeat_millis,omitempty"`
}

// HeartbeatRequest extends a lease.
type HeartbeatRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker,omitempty"`
}

// HeartbeatResponse acknowledges a heartbeat. A worker whose lease expired
// (Lost) should abandon the chunk: the coordinator has requeued it, and any
// rows the worker still streams are deduplicated against the journal.
type HeartbeatResponse struct {
	Lost bool `json:"lost,omitempty"`
}

// ResultRow is one streamed outcome row. Its JSON layout matches the
// journal's record payload, so a frame lifted off the stream can be
// journaled as-is.
type ResultRow struct {
	Idx    int           `json:"idx"`
	Result inject.Result `json:"result"`
}

// StreamSummary closes a result stream: how many rows the coordinator
// accepted and how many it discarded as duplicates.
type StreamSummary struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// ErrorReport is a worker-reported fatal campaign error (a build failure, a
// golden-checksum mismatch): conditions that re-running on another worker
// cannot fix, so the coordinator fails the campaign rather than retrying it
// forever.
type ErrorReport struct {
	LeaseID string `json:"lease_id,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Msg     string `json:"msg"`
}

// CrashReport is one forwarded crashnet packet (kfi-monitor -forward).
type CrashReport struct {
	Source    string `json:"source,omitempty"`
	Platform  string `json:"platform"`
	Cause     string `json:"cause"`
	Seq       uint32 `json:"seq"`
	PC        uint32 `json:"pc"`
	FaultAddr uint32 `json:"fault_addr"`
	SP        uint32 `json:"sp"`
	Cycles    uint64 `json:"cycles"`
}

// SpecFor builds the wire spec for a study-style submission, deriving the
// per-(platform, campaign) seed exactly as the local study engine does, so
// `kfi-campaign -submit` and a local `kfi-campaign` run of the same flags
// inject the same targets.
func SpecFor(p isa.Platform, c inject.Campaign, n int, baseSeed int64, burst uint8, scale, retries int, harden kir.HardenOpts) Spec {
	s := Spec{
		Platform: strings.ToLower(p.Short()),
		Campaign: campaignSlug(c),
		N:        n,
		Seed:     core.SpecSeed(baseSeed, p, c),
		Burst:    burst,
		Scale:    scale,
		Retries:  retries,
	}
	if harden.Enabled() {
		s.Harden = harden.String()
	}
	return s
}

// SortStatuses orders campaign statuses for stable listings: non-terminal
// first, then by ID.
func SortStatuses(list []Status) {
	sort.Slice(list, func(i, j int) bool {
		ti, tj := list[i].State.Terminal(), list[j].State.Terminal()
		if ti != tj {
			return !ti
		}
		return list[i].ID < list[j].ID
	})
}
