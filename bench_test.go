package kfi_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation. Each Benchmark* maps to one paper artifact:
//
//	BenchmarkTable5_P4Campaigns     — Table 5 (P4 activation/failure stats)
//	BenchmarkTable6_G4Campaigns     — Table 6 (G4 activation/failure stats)
//	BenchmarkFigure4_P4CrashCauses  — Fig. 4 (overall P4 crash causes)
//	BenchmarkFigure5_G4CrashCauses  — Fig. 5 (overall G4 crash causes)
//	BenchmarkFigure6_StackCrashCauses   — Fig. 6 (stack-injection causes)
//	BenchmarkFigure10_SysRegCrashCauses — Fig. 10 (register-injection causes)
//	BenchmarkFigure11_CodeCrashCauses   — Fig. 11 (code-injection causes)
//	BenchmarkFigure12_DataCrashCauses   — Fig. 12 (data-injection causes)
//	BenchmarkFigure16{A,B,C,D}_*Latency — Fig. 16 (cycles-to-crash)
//
// One benchmark iteration is one complete injection run (reboot, inject,
// run-to-outcome). Larger -benchtime values sharpen every distribution; the
// tables are printed through b.Log at the end of each benchmark.
//
// Ablation benches isolate the design choices DESIGN.md calls out:
// encoding density, stack-overflow wrapper, spinlock debug checks, data
// layout, register-file pressure, the unclaimed-bus window, the mid-run
// trigger methodology, and the multi-bit-burst extension of the error
// model. BenchmarkPropagation quantifies the Figure 7 phenomenon.
//
// These are the paper's artifacts, not speed claims: campaign speed is
// measured by the campaignbench module (see campaignbench/README.md), which
// runs each workload repeatedly and reports the spread.

import (
	"fmt"
	"sync"
	"testing"

	"kfi"
	"kfi/internal/cisc"
	"kfi/internal/risc"
)

// Systems are expensive to build; share them across benchmarks.
var (
	benchOnce sync.Once
	benchSys  map[kfi.Platform]*kfi.System
	benchErr  error
)

func benchSystem(b *testing.B, p kfi.Platform) *kfi.System {
	b.Helper()
	benchOnce.Do(func() {
		benchSys = make(map[kfi.Platform]*kfi.System, 2)
		for _, plat := range kfi.Platforms {
			sys, err := kfi.BuildSystem(plat, kfi.BuildOptions{})
			if err != nil {
				benchErr = err
				return
			}
			benchSys[plat] = sys
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchSys[p]
}

// campaignMix pre-generates a repeating target mix with the paper's
// per-campaign proportions for one platform's Table 5/6.
func campaignMix(b *testing.B, sys *kfi.System, seed int64) ([]kfi.Target, []kfi.Campaign) {
	b.Helper()
	// Proportions from the paper's tables, scaled to a 64-target cycle:
	// P4 61799 total → stack 10.5, sysreg 4, data 47.6, code 1.9 of 64.
	mix := []struct {
		camp kfi.Campaign
		n    int
	}{
		{kfi.Stack, 10},
		{kfi.SysRegs, 4},
		{kfi.Data, 46},
		{kfi.Code, 4},
	}
	var targets []kfi.Target
	var camps []kfi.Campaign
	for _, m := range mix {
		ts, err := kfi.NewTargets(sys, m.camp, m.n*8, seed+int64(m.camp))
		if err != nil {
			b.Fatal(err)
		}
		targets = append(targets, ts...)
		for range ts {
			camps = append(camps, m.camp)
		}
	}
	return targets, camps
}

func benchTable(b *testing.B, p kfi.Platform) {
	sys := benchSystem(b, p)
	targets, camps := campaignMix(b, sys, 100+int64(p))
	perCamp := make(map[kfi.Campaign][]kfi.Result)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := targets[i%len(targets)]
		perCamp[camps[i%len(targets)]] = append(perCamp[camps[i%len(targets)]], kfi.InjectOne(sys, t))
	}
	b.StopTimer()
	var out string
	out += fmt.Sprintf("\n%v — Statistics on Error Activation and Failure Distribution (N=%d)\n", p, b.N)
	for _, c := range kfi.AllCampaigns {
		if rs := perCamp[c]; len(rs) > 0 {
			counts := kfi.Summarize(rs)
			out += counts.TableRow(c.String()) + "\n"
			if c == kfi.Stack {
				base := counts.ActivatedBase()
				if base > 0 {
					b.ReportMetric(100*float64(counts.Manifested())/float64(base), "stack-manifest-%")
				}
			}
		}
	}
	b.Log(out)
}

// BenchmarkTable5_P4Campaigns regenerates Table 5.
func BenchmarkTable5_P4Campaigns(b *testing.B) { benchTable(b, kfi.P4) }

// BenchmarkTable6_G4Campaigns regenerates Table 6.
func BenchmarkTable6_G4Campaigns(b *testing.B) { benchTable(b, kfi.G4) }

// benchCauses runs one campaign on one platform and prints its crash-cause
// distribution.
func benchCauses(b *testing.B, p kfi.Platform, camp kfi.Campaign, title string) kfi.CauseDist {
	sys := benchSystem(b, p)
	targets, err := kfi.NewTargets(sys, camp, 512, 200+int64(p)+int64(camp))
	if err != nil {
		b.Fatal(err)
	}
	var results []kfi.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
	}
	b.StopTimer()
	d := kfi.CrashCauses(results)
	b.ReportMetric(float64(d.Total), "crashes")
	b.Logf("\n%s (N=%d)\n%s", title, b.N, d.Render(p))
	return d
}

// benchCausesAll merges every campaign (Figures 4/5).
func benchCausesAll(b *testing.B, p kfi.Platform, title string) {
	sys := benchSystem(b, p)
	targets, _ := campaignMix(b, sys, 300+int64(p))
	var results []kfi.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
	}
	b.StopTimer()
	d := kfi.CrashCauses(results)
	b.ReportMetric(d.InvalidMemoryPct(p), "invalid-mem-%")
	b.Logf("\n%s (N=%d)\n%s", title, b.N, d.Render(p))
}

// BenchmarkFigure4_P4CrashCauses regenerates Figure 4.
func BenchmarkFigure4_P4CrashCauses(b *testing.B) {
	benchCausesAll(b, kfi.P4, "Overall Distribution of Crash Causes (Known Crash, P4)")
}

// BenchmarkFigure5_G4CrashCauses regenerates Figure 5.
func BenchmarkFigure5_G4CrashCauses(b *testing.B) {
	benchCausesAll(b, kfi.G4, "Overall Distribution of Crash Causes (Known Crash, G4)")
}

// BenchmarkFigure6_StackCrashCauses regenerates Figure 6 (run on both
// platforms via sub-benchmarks).
func BenchmarkFigure6_StackCrashCauses(b *testing.B) {
	b.Run("p4", func(b *testing.B) {
		benchCauses(b, kfi.P4, kfi.Stack, "Crash Causes for Kernel Stack Injection (P4)")
	})
	b.Run("g4", func(b *testing.B) {
		d := benchCauses(b, kfi.G4, kfi.Stack, "Crash Causes for Kernel Stack Injection (G4)")
		so := d.Counts[kfi.CauseStackOverflow]
		if d.Total > 0 {
			b.ReportMetric(100*float64(so)/float64(d.Total), "stack-overflow-%")
		}
	})
}

// BenchmarkFigure10_SysRegCrashCauses regenerates Figure 10.
func BenchmarkFigure10_SysRegCrashCauses(b *testing.B) {
	b.Run("p4", func(b *testing.B) {
		benchCauses(b, kfi.P4, kfi.SysRegs, "Crash Causes for System Register Injection (P4)")
	})
	b.Run("g4", func(b *testing.B) {
		benchCauses(b, kfi.G4, kfi.SysRegs, "Crash Causes for System Register Injection (G4)")
	})
}

// BenchmarkFigure11_CodeCrashCauses regenerates Figure 11.
func BenchmarkFigure11_CodeCrashCauses(b *testing.B) {
	b.Run("p4", func(b *testing.B) {
		benchCauses(b, kfi.P4, kfi.Code, "Crash Causes for Code Injection (P4)")
	})
	b.Run("g4", func(b *testing.B) {
		benchCauses(b, kfi.G4, kfi.Code, "Crash Causes for Code Injection (G4)")
	})
}

// BenchmarkFigure12_DataCrashCauses regenerates Figure 12.
func BenchmarkFigure12_DataCrashCauses(b *testing.B) {
	b.Run("p4", func(b *testing.B) {
		benchCauses(b, kfi.P4, kfi.Data, "Crash Causes for Kernel Data Injection (P4)")
	})
	b.Run("g4", func(b *testing.B) {
		benchCauses(b, kfi.G4, kfi.Data, "Crash Causes for Kernel Data Injection (G4)")
	})
}

// benchLatency runs one campaign on both platforms and prints the Figure 16
// panel.
func benchLatency(b *testing.B, camp kfi.Campaign, panel string) {
	var hists [2]kfi.LatencyHist
	for pi, p := range kfi.Platforms {
		pi, p := pi, p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			targets, err := kfi.NewTargets(sys, camp, 512, 400+int64(p)+int64(camp))
			if err != nil {
				b.Fatal(err)
			}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
			}
			b.StopTimer()
			hists[pi] = kfi.Latencies(results)
			b.ReportMetric(hists[pi].CumulativePct(1), "<=10k-%")
		})
	}
	var out string
	out += fmt.Sprintf("\nFigure 16(%s): Cycles-to-Crash, %v Injection\n", panel, camp)
	out += fmt.Sprintf("  %-9s %10s %10s\n", "bucket", "P4-class", "G4-class")
	labels := []string{"<3k", "3k-10k", "10k-100k", "100k-1M", "1M-10M", "10M-100M", "100M-1G", ">1G"}
	for i, label := range labels {
		out += fmt.Sprintf("  %-9s %9.1f%% %9.1f%%\n", label, hists[0].Pct(i), hists[1].Pct(i))
	}
	out += fmt.Sprintf("  %-9s %10d %10d\n", "crashes", hists[0].Total, hists[1].Total)
	b.Log(out)
}

// BenchmarkFigure16A_StackLatency regenerates Figure 16(A).
func BenchmarkFigure16A_StackLatency(b *testing.B) { benchLatency(b, kfi.Stack, "A") }

// BenchmarkFigure16B_SysRegLatency regenerates Figure 16(B).
func BenchmarkFigure16B_SysRegLatency(b *testing.B) { benchLatency(b, kfi.SysRegs, "B") }

// BenchmarkFigure16C_CodeLatency regenerates Figure 16(C).
func BenchmarkFigure16C_CodeLatency(b *testing.B) { benchLatency(b, kfi.Code, "C") }

// BenchmarkFigure16D_DataLatency regenerates Figure 16(D).
func BenchmarkFigure16D_DataLatency(b *testing.B) { benchLatency(b, kfi.Data, "D") }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationEncodingDensity measures, per platform, the fraction of
// single-bit instruction flips that still decode to a valid instruction —
// the encoding-density mechanism behind the P4's resynchronization behavior.
func BenchmarkAblationEncodingDensity(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			im := sys.Sys.KernelImage
			code := im.Code
			valid, total := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * 2654435761) % (len(code) - 8)
				if p == kfi.G4 {
					off &^= 3
					w := uint32(code[off])<<24 | uint32(code[off+1])<<16 |
						uint32(code[off+2])<<8 | uint32(code[off+3])
					for bit := 0; bit < 32; bit++ {
						total++
						if _, err := risc.Decode(w ^ 1<<bit); err == nil {
							valid++
						}
					}
					continue
				}
				for bit := 0; bit < 8; bit++ {
					total++
					mut := append([]byte(nil), code[off:off+8]...)
					mut[0] ^= 1 << bit
					if _, err := cisc.Decode(mut); err == nil {
						valid++
					}
				}
			}
			b.StopTimer()
			if total > 0 {
				b.ReportMetric(100*float64(valid)/float64(total), "flips-still-decode-%")
			}
		})
	}
}

// BenchmarkAblationStackWrapper compares G4 stack-injection crash causes
// with and without the kernel's exception-entry stack check: without it, the
// explicit Stack Overflow category disappears and the same corruptions
// surface as other exceptions — the P4's behavior (paper §5.1).
func BenchmarkAblationStackWrapper(b *testing.B) {
	for _, wrapper := range []bool{true, false} {
		wrapper := wrapper
		name := "with-wrapper"
		if !wrapper {
			name = "without-wrapper"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := kfi.BuildSystem(kfi.G4, kfi.BuildOptions{NoStackWrapper: !wrapper})
			if err != nil {
				b.Fatal(err)
			}
			targets, err := kfi.NewTargets(sys, kfi.Stack, 512, 777)
			if err != nil {
				b.Fatal(err)
			}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
			}
			b.StopTimer()
			d := kfi.CrashCauses(results)
			so := 0
			for cause, n := range d.Counts {
				if cause.String() == "Stack Overflow" {
					so += n
				}
			}
			if d.Total > 0 {
				b.ReportMetric(100*float64(so)/float64(d.Total), "stack-overflow-%")
			}
			b.Logf("\nG4 stack crashes %s (N=%d):\n%s", name, b.N, d.Render(kfi.G4))
		})
	}
}

// BenchmarkAblationSpinlockDebug compares data injections into the spinlock
// region with and without SPINLOCK_DEBUG: with the checks, corrupted magic
// words are caught quickly as Invalid Instruction (Figure 13); without them,
// the corruption passes silently or hangs.
func BenchmarkAblationSpinlockDebug(b *testing.B) {
	for _, debug := range []bool{true, false} {
		debug := debug
		name := "with-debug"
		if !debug {
			name = "without-debug"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := kfi.BuildSystem(kfi.P4, kfi.BuildOptions{
				Kernel: kfi.KernelProgOptions{NoSpinlockDebug: !debug},
			})
			if err != nil {
				b.Fatal(err)
			}
			// Aim every injection at the five locks' magic words.
			lockSyms := []string{"kernel_flag", "page_lock", "buf_lock", "net_lock", "journal_lock"}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sym := lockSyms[i%len(lockSyms)]
				t := kfi.Target{
					Campaign: kfi.Data,
					Addr:     sys.Sys.KernelImage.Sym(sym) + uint32(i%4),
					Bit:      uint(i % 8),
				}
				results = append(results, kfi.InjectOne(sys, t))
			}
			b.StopTimer()
			c := kfi.Summarize(results)
			d := kfi.CrashCauses(results)
			ii := 0
			for cause, n := range d.Counts {
				if cause.String() == "Invalid Instruction" {
					ii += n
				}
			}
			b.ReportMetric(float64(ii), "bug-detections")
			b.ReportMetric(float64(c.HangUnknown), "hangs")
			b.Logf("\nspinlock-magic injections %s (N=%d): %+v", name, b.N, c)
		})
	}
}

// BenchmarkAblationDataLayout measures the data-sensitivity difference the
// layouts create: the fraction of data-injection activations that manifest,
// per platform (packed CISC vs word-padded RISC).
func BenchmarkAblationDataLayout(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			// Target the hot structure area (buffer heads + locks + stats),
			// where activation is likely, to compare manifestation rates.
			im := sys.Sys.KernelImage
			base := im.Sym("buffer_heads")
			end := im.Sym("sys_call_table")
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				addr := base + uint32((i*2654435761)%int(end-base))
				t := kfi.Target{Campaign: kfi.Data, Addr: addr, Bit: uint(i % 8)}
				results = append(results, kfi.InjectOne(sys, t))
			}
			b.StopTimer()
			c := kfi.Summarize(results)
			if c.Activated > 0 {
				b.ReportMetric(100*float64(c.Manifested())/float64(c.Activated), "manifest-of-activated-%")
			}
			b.Logf("\nhot-data injections on %v (N=%d): %+v", p, b.N, c)
		})
	}
}

// BenchmarkAblationRegisterPressure measures the DYNAMIC stack traffic the
// register files create: the fraction of executed kernel instructions that
// touch the stack (argument pushes, spills, frame loads). The 4-register
// CISC target lives on its stack; the 16-allocatable-register RISC target
// keeps values register-resident — the mechanism behind the paper's stack
// sensitivity and code-latency contrasts.
func BenchmarkAblationRegisterPressure(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			im := sys.Sys.KernelImage
			// Precompute which instruction addresses are stack-touching.
			stackPC := make(map[uint32]bool)
			if p == kfi.G4 {
				for off := 0; off+4 <= len(im.Code); off += 4 {
					w := uint32(im.Code[off])<<24 | uint32(im.Code[off+1])<<16 |
						uint32(im.Code[off+2])<<8 | uint32(im.Code[off+3])
					in, err := risc.Decode(w)
					if err != nil {
						continue
					}
					switch in.Op {
					case risc.OpSTW, risc.OpSTWU, risc.OpLWZ:
						if in.RA == risc.SP || in.RA == 31 {
							stackPC[im.CodeBase+uint32(off)] = true
						}
					}
				}
			} else {
				for off := 0; off < len(im.Code); {
					in, err := cisc.Decode(im.Code[off:])
					if err != nil {
						off++
						continue
					}
					switch in.Op {
					case cisc.OpPUSH, cisc.OpPOP, cisc.OpPUSHI, cisc.OpLEAVE,
						cisc.OpCALL, cisc.OpCALLR, cisc.OpRET:
						stackPC[im.CodeBase+uint32(off)] = true
					case cisc.OpLD32, cisc.OpST32:
						if in.R2 == cisc.EBP || in.R2 == cisc.ESP {
							stackPC[im.CodeBase+uint32(off)] = true
						}
					}
					off += int(in.Len)
				}
			}
			var stackOps, total float64
			m := sys.Sys.Machine
			m.Reboot()
			m.Core().SetTrace(func(pc uint32, cost uint8) {
				total++
				if stackPC[pc] {
					stackOps++
				}
			})
			b.ResetTimer()
			m.PauseAt = uint64(b.N)
			m.Run()
			b.StopTimer()
			m.Core().SetTrace(nil)
			if total > 0 {
				b.ReportMetric(100*stackOps/total, "dyn-stack-traffic-%")
			}
		})
	}
}

// BenchmarkPropagation quantifies the Figure 7 phenomenon: how often a code
// error escapes the corrupted function (and its subsystem) before crashing.
// The paper's key P4 risk is exactly this undetected cross-subsystem travel.
func BenchmarkPropagation(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			targets, err := kfi.NewTargets(sys, kfi.Code, 512, 600+int64(p))
			if err != nil {
				b.Fatal(err)
			}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
			}
			b.StopTimer()
			prop := kfi.Propagate(results)
			if prop.Crashes > 0 {
				b.ReportMetric(prop.CrossPct(), "cross-subsystem-%")
			}
			b.Logf("\n%v %s", p, prop.Render())
		})
	}
}

// BenchmarkAblationBurstWidth extends the paper's single-bit error model to
// multi-bit bursts (2 and 4 adjacent bits) on the code campaign. The
// expectation from the Figure 11 argument: wider bursts push the dense CISC
// encoding toward even more valid-but-wrong decodes (memory faults), while
// the sparse RISC encoding converts them into Illegal Instruction even more
// often — the architectural gap widens with burst width.
func BenchmarkAblationBurstWidth(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			for _, burst := range []uint8{1, 2, 4} {
				burst := burst
				b.Run(fmt.Sprintf("burst-%d", burst), func(b *testing.B) {
					targets, err := kfi.NewTargets(sys, kfi.Code, 256, 7100+int64(burst))
					if err != nil {
						b.Fatal(err)
					}
					var results []kfi.Result
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						t := targets[i%len(targets)]
						t.Burst = burst
						results = append(results, kfi.InjectOne(sys, t))
					}
					b.StopTimer()
					c := kfi.Summarize(results)
					d := kfi.CrashCauses(results)
					var illegal, memory int
					for cause, n := range d.Counts {
						switch cause.String() {
						case "Invalid Instruction", "Illegal Instruction":
							illegal += n
						case "NULL Pointer", "Bad Paging", "Bad Area":
							memory += n
						}
					}
					if d.Total > 0 {
						b.ReportMetric(100*float64(illegal)/float64(d.Total), "illegal-%")
						b.ReportMetric(100*float64(memory)/float64(d.Total), "invalid-mem-%")
					}
					b.ReportMetric(100*float64(c.Crash+c.HangUnknown)/float64(c.Injected), "manifest-%")
					b.Logf("\n%v burst=%d (N=%d): %+v", p, burst, b.N, c)
				})
			}
		})
	}
}

// BenchmarkAblationBusWindow varies how much of the beyond-RAM address space
// is an unclaimed processor-local bus region on the G4. The paper's G4 shows
// Machine Check as a small share (1.4%) of crashes; that is only reproducible
// if most wild kernel pointers fault as Bad Area (mapped-bus / page-fault
// path) rather than hanging the bus — the narrow-window calibration DESIGN.md
// §8 records.
func BenchmarkAblationBusWindow(b *testing.B) {
	for _, wide := range []bool{false, true} {
		wide := wide
		name := "narrow-window"
		if wide {
			name = "whole-bus-unclaimed"
		}
		b.Run(name, func(b *testing.B) {
			sys, err := kfi.BuildSystem(kfi.G4, kfi.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if wide {
				// Every beyond-RAM access hangs the bus.
				sys.Sys.Machine.Mem.SetBusWindow(16<<20, 0xFFFFFFF0)
			}
			targets, err := kfi.NewTargets(sys, kfi.Code, 256, 4242)
			if err != nil {
				b.Fatal(err)
			}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results = append(results, kfi.InjectOne(sys, targets[i%len(targets)]))
			}
			b.StopTimer()
			d := kfi.CrashCauses(results)
			var mc int
			for cause, n := range d.Counts {
				if cause.String() == "Machine Check" {
					mc += n
				}
			}
			if d.Total > 0 {
				b.ReportMetric(100*float64(mc)/float64(d.Total), "machine-check-%")
			}
			b.Logf("\nG4 %s (N=%d): crashes=%d machine-checks=%d", name, b.N, d.Total, mc)
		})
	}
}

// BenchmarkAblationMidRunTrigger contrasts the paper's methodology — stack
// errors injected at a random mid-run moment, resolved against the live
// stack extent — with naive boot-time injection. At boot every kernel stack
// is empty, so boot-time flips land in dead memory and are almost never
// activated; the mid-run trigger is what makes the paper's ~30-40% stack
// activation (Tables 5/6) reachable at all.
func BenchmarkAblationMidRunTrigger(b *testing.B) {
	for _, midRun := range []bool{true, false} {
		midRun := midRun
		name := "mid-run"
		if !midRun {
			name = "boot-time"
		}
		b.Run(name, func(b *testing.B) {
			sys := benchSystem(b, kfi.P4)
			targets, err := kfi.NewTargets(sys, kfi.Stack, 256, 1616)
			if err != nil {
				b.Fatal(err)
			}
			var results []kfi.Result
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t := targets[i%len(targets)]
				if !midRun {
					t.Delay = 0
				}
				results = append(results, kfi.InjectOne(sys, t))
			}
			b.StopTimer()
			c := kfi.Summarize(results)
			b.ReportMetric(100*float64(c.Activated)/float64(c.Injected), "activation-%")
			b.Logf("\nP4 stack %s (N=%d): %+v", name, b.N, c)
		})
	}
}
