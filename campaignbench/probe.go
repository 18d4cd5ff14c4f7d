package main

import (
	"fmt"
	"time"

	"kfi/internal/core"
	"kfi/internal/isa"
	"kfi/internal/mem"
)

// goldenNsPerCycle times untraced fault-free runs (kernel.System.Run,
// nothing armed) on both platforms and returns host ns per simulated cycle.
func goldenNsPerCycle(systems map[isa.Platform]*core.System, reps int) float64 {
	var ns, cycles float64
	for i := 0; i < reps; i++ {
		for _, p := range platforms {
			start := time.Now()
			res := systems[p].Sys.Run()
			ns += float64(time.Since(start))
			cycles += float64(res.Cycles)
		}
	}
	return ns / cycles
}

// memAccesses is the length of the fixed access sequence memProbe replays.
const memAccesses = 1 << 12

// memProbe times mem.Memory.Read and Write over a fixed sequence of aligned
// 1-, 2- and 4-byte accesses in the kernel data, bss and stack regions, on a
// fresh memory laid out like each platform's (little-endian P4, big-endian
// G4). It returns ns per read and per write.
func memProbe(systems map[isa.Platform]*core.System, reps int) (readNs, writeNs float64, err error) {
	var rd, wr time.Duration
	ops := 0
	for _, p := range platforms {
		src := systems[p].Sys.Machine.Mem
		regions := src.Regions(mem.KindData, mem.KindBSS, mem.KindStack)
		if len(regions) == 0 {
			return 0, 0, fmt.Errorf("%v: no data or stack regions", p)
		}
		m := mem.New(src.Size(), src.Order())
		for _, r := range regions {
			m.Map(r.Start, r.Size(), mem.Present|mem.Writable)
		}
		addrs := make([]uint32, memAccesses)
		sizes := make([]uint32, memAccesses)
		x := uint32(2463534242)
		for i := range addrs {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			r := regions[int(x%uint32(len(regions)))]
			size := uint32(1) << (x >> 8 % 3)
			addrs[i] = (r.Start + (x>>12)%(r.Size()-4)) &^ (size - 1)
			sizes[i] = size
		}
		start := time.Now()
		for k := 0; k < reps; k++ {
			for i, a := range addrs {
				if _, f := m.Read(a, sizes[i], false); f != nil {
					return 0, 0, f
				}
			}
		}
		rd += time.Since(start)
		start = time.Now()
		for k := 0; k < reps; k++ {
			for i, a := range addrs {
				if f := m.Write(a, sizes[i], uint32(i), false); f != nil {
					return 0, 0, f
				}
			}
		}
		wr += time.Since(start)
		ops += reps * len(addrs)
	}
	return float64(rd) / float64(ops), float64(wr) / float64(ops), nil
}

// sectionStats counts the section cache's files and bytes.
func sectionStats(dir string) (files, bytes float64, err error) {
	secs, err := statSections(dir)
	if err != nil {
		return 0, 0, err
	}
	for _, fi := range secs {
		files++
		bytes += float64(fi.Size())
	}
	return files, bytes, nil
}
