package kernel

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"

	"kfi/internal/machine"
)

// GoldenTrace is one traced golden run of a sealed system: the first cycle
// at which each PC is about to execute, the first-touch cycle of each data
// word, the cycles retired at each kernel-text PC, and the run's length and
// checksum. It is a pure function of the sealed image, so System.GoldenTrace
// computes it once and every plan on the system shares it. It is the
// system's one fault-free run: the golden checksum, the run length and the
// kernel profile are all read from it. It is read-only: its maps and slices
// are reachable only through the lookup methods.
type GoldenTrace struct {
	firstHit map[uint32]uint64
	// firstTouch maps every 4-byte word (addr &^ 3, the word
	// inject.RunFrom's data watchpoint covers) that the golden run reads or
	// writes to the start cycle of the last instruction completed before
	// the first such access. The accesses are the guest's loads and stores
	// and the host glue's raw reads and writes. A snapshot chain pausing for
	// that trigger stops before the access.
	firstTouch map[uint32]uint64
	// text holds the cycles retired at each kernel-text address, indexed
	// from textBase: every execution's cost summed, 0 where nothing ran.
	text     []uint64
	textBase uint32
	cycles   uint64
	checksum uint32

	hitsOnce sync.Once
	hits     string
}

// FirstHit returns the cycle count just before pc first executes — the
// exact cycle at which a code-injection breakpoint on pc would fire — and
// whether the golden run executes pc at all.
func (tr *GoldenTrace) FirstHit(pc uint32) (uint64, bool) {
	c, ok := tr.firstHit[pc]
	return c, ok
}

// FirstTouch returns the first-touch trigger of the 4-byte word holding
// addr and whether the golden run reads or writes that word at all.
func (tr *GoldenTrace) FirstTouch(addr uint32) (uint64, bool) {
	c, ok := tr.firstTouch[addr&^3]
	return c, ok
}

// TextCycles returns the cycles the golden run retired executing the
// instruction at pc, summed over every execution; it is 0 for a pc outside
// kernel text.
func (tr *GoldenTrace) TextCycles(pc uint32) uint64 {
	if off := pc - tr.textBase; off < uint32(len(tr.text)) {
		return tr.text[off]
	}
	return 0
}

// Cycles is the golden run's length.
func (tr *GoldenTrace) Cycles() uint64 { return tr.cycles }

// Checksum is the golden run's benchmark checksum.
func (tr *GoldenTrace) Checksum() uint32 { return tr.checksum }

// HitFingerprint hashes the full first-hit trace in a deterministic
// (PC-sorted) order. It is computed on first use and shared after.
func (tr *GoldenTrace) HitFingerprint() string {
	tr.hitsOnce.Do(func() {
		pcs := make([]uint32, 0, len(tr.firstHit))
		for pc := range tr.firstHit {
			pcs = append(pcs, pc)
		}
		sort.Slice(pcs, func(a, b int) bool { return pcs[a] < pcs[b] })
		h := sha256.New()
		for _, pc := range pcs {
			fmt.Fprintf(h, "%08x %d\n", pc, tr.firstHit[pc])
		}
		tr.hits = hex.EncodeToString(h.Sum(nil))
	})
	return tr.hits
}

// goldenMemo holds a system's traced golden run and the seal generation of
// the image it was traced from.
type goldenMemo struct {
	mu  sync.Mutex
	gen uint64
	tr  *GoldenTrace
}

// GoldenTrace returns the system's traced golden run, tracing it on the
// first call and again only after Machine.Seal replaced the sealed image.
// A traced run reboots and runs the machine; a call served from the memo
// leaves the machine as it is.
func (s *System) GoldenTrace() (*GoldenTrace, error) {
	s.golden.mu.Lock()
	defer s.golden.mu.Unlock()
	gen := s.Machine.Mem.SealGen()
	if s.golden.tr != nil && s.golden.gen == gen {
		return s.golden.tr, nil
	}
	tr, err := s.traceGolden()
	if err != nil {
		return nil, err
	}
	s.golden.tr, s.golden.gen = tr, gen
	return tr, nil
}

// traceGolden runs the benchmark once from the sealed image with both
// traces installed: the instruction trace for each PC's first execution and
// each kernel-text PC's retired cycles, and the access trace for each data
// word's first touch. Two bitmaps (one bit per byte of guest memory for
// PCs, one per word for accesses) keep the first-hit and first-touch maps
// off the path of every repeat.
func (s *System) traceGolden() (*GoldenTrace, error) {
	m := s.Machine
	m.Reboot()
	clk := m.Core().Clock()
	text, base := make([]uint64, len(s.KernelImage.Code)), s.KernelImage.CodeBase
	tr := &GoldenTrace{firstHit: map[uint32]uint64{}, firstTouch: map[uint32]uint64{},
		text: text, textBase: base}
	var last uint64 // start cycle of the last instruction completed
	hit := make([]uint64, (m.Mem.Size()+63)/64)
	m.Core().SetTrace(func(pc uint32, cost uint8) {
		// Trace reports after the clock advanced past the instruction.
		last = clk.Cycles() - uint64(cost)
		if off := pc - base; off < uint32(len(text)) {
			text[off] += uint64(cost)
		}
		if hit[pc/64]&(1<<(pc%64)) == 0 {
			hit[pc/64] |= 1 << (pc % 64)
			tr.firstHit[pc] = last
		}
	})
	seen := make([]uint64, (m.Mem.Size()/4+63)/64)
	m.Core().SetAccessTrace(func(addr, size uint32) {
		touchWords(tr.firstTouch, seen, addr, size, last)
	})
	res := m.Run()
	m.Core().SetTrace(nil)
	m.Core().SetAccessTrace(nil)
	if res.Outcome != machine.OutCompleted {
		return nil, fmt.Errorf("kernel: traced golden run did not complete: %v", res.Outcome)
	}
	tr.cycles, tr.checksum = res.Cycles, res.Checksum
	return tr, nil
}

// touchWords records cyc as the first touch of every word the access
// [addr, addr+size) overlaps that has none yet. These are the words whose
// 4-byte data watchpoint isa.DebugUnit.HitData reports for the access, so
// an unaligned access spanning two words touches both. seen holds one bit
// per word of guest memory, set once the word is in first, which keeps the
// map off the path of every access after a word's first.
func touchWords(first map[uint32]uint64, seen []uint64, addr, size uint32, cyc uint64) {
	for w := addr &^ 3; w < addr+size; w += 4 {
		if i := w / 4; seen[i/64]&(1<<(i%64)) == 0 {
			seen[i/64] |= 1 << (i % 64)
			first[w] = cyc
		}
	}
}
