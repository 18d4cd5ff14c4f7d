// Package snapshot implements the checkpoint/restore subsystem behind
// fork-from-golden injection: it checkpoints the complete guest state — CPU
// registers, system registers, debug registers, pending-trap and
// cycle-counter state, the machine's timer/watchdog scheduling, and the full
// memory image (which carries the kernel's scheduler and process state) —
// into an in-memory Snapshot, and restores it in O(dirty pages) using the
// copy-on-write page tracking of internal/mem.
//
// The intended pattern is the one FastFlip-style injection campaigns use:
// capture once at (or just before) an injection trigger point on the golden
// run, then restore-inject-resume for every experiment sharing that prefix
// instead of replaying from boot. Recapture advances an armed snapshot
// further along the golden run, again in O(dirty pages), so a campaign can
// chain incremental checkpoints across its trigger times and execute the
// golden prefix exactly once in total.
//
// A snapshot lives only in memory and restores only onto the machine it is
// armed on as the restore baseline.
package snapshot

import (
	"errors"

	"kfi/internal/machine"
	"kfi/internal/mem"
)

// Snapshot is one captured guest checkpoint.
type Snapshot struct {
	// Cycles is the machine cycle count at capture (a convenience mirror of
	// the CPU cycle counter inside State).
	Cycles uint64

	// State is the CPU + machine run-loop state.
	State machine.State

	// Image is the RAM contents at capture. While the snapshot is armed as
	// a machine's restore baseline the machine aliases it; it changes only
	// through Recapture.
	Image *mem.Image
}

// Capture checkpoints the machine's current state and arms the snapshot as
// the machine's restore baseline, so a later Restore on the same machine
// costs O(pages dirtied since capture).
func Capture(ma *machine.Machine) *Snapshot {
	image := ma.Mem.CopyImage()
	ma.Mem.SetBaseline(image, true)
	return &Snapshot{
		Cycles: ma.Core().Clock().Cycles(),
		State:  ma.SaveState(),
		Image:  image,
	}
}

// Armed reports whether s is the machine's active restore baseline (pointer
// identity on the image).
func (s *Snapshot) Armed(ma *machine.Machine) bool {
	return s.Image != nil && ma.Mem.Baseline() == s.Image
}

// errNotArmed reports a Restore or Recapture of a snapshot that is not the
// machine's armed baseline.
var errNotArmed = errors.New("snapshot: not the machine's armed baseline")

// Restore rewinds the machine to the snapshot, copying back only the pages
// dirtied since the last capture, restore or recapture. The snapshot must
// be the machine's armed baseline; any other snapshot fails and leaves the
// machine untouched. It returns the number of pages copied.
func (s *Snapshot) Restore(ma *machine.Machine) (int, error) {
	if !s.Armed(ma) {
		return 0, errNotArmed
	}
	if err := ma.RestoreState(&s.State); err != nil {
		return 0, err
	}
	return ma.Mem.RestoreBaseline(), nil
}

// Recapture advances an armed snapshot to the machine's current state in
// O(dirty pages): the image absorbs the pages dirtied since the last
// capture/restore and the CPU state is re-saved. The snapshot must be the
// machine's armed baseline. It returns the number of pages absorbed.
func (s *Snapshot) Recapture(ma *machine.Machine) (int, error) {
	if !s.Armed(ma) {
		return 0, errNotArmed
	}
	n := ma.Mem.SyncBaseline()
	s.Cycles = ma.Core().Clock().Cycles()
	s.State = ma.SaveState()
	return n, nil
}
