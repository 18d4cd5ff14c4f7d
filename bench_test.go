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

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"kfi"
	"kfi/internal/campaign"
	"kfi/internal/cisc"
	"kfi/internal/isa"
	"kfi/internal/kernel"
	"kfi/internal/mem"
	"kfi/internal/platform"
	"kfi/internal/risc"
	"kfi/internal/snapshot"
	"kfi/internal/staticsense"
	"kfi/internal/stats"
)

// Systems are expensive to build; share them across benchmarks.
var (
	benchOnce sync.Once
	benchSys  map[kfi.Platform]*kfi.System
	benchErr  error
)

// writeBench records a benchmark's per-platform rows in the named BENCH
// file when every platform produced one. -short runs are reduced-size smoke
// tests, so they never overwrite the committed full-size figures.
func writeBench[R any](b *testing.B, name string, rows map[string]R) {
	if len(rows) != len(kfi.Platforms) || testing.Short() {
		return
	}
	buf, err := json.MarshalIndent(rows, "", "  ")
	if err == nil {
		err = os.WriteFile(name, append(buf, '\n'), 0o644)
	}
	if err != nil {
		b.Logf("%s: %v", name, err)
	}
}

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

// --- Substrate performance -----------------------------------------------

// BenchmarkEmulator measures raw interpreter throughput per platform.
func BenchmarkEmulator(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			m := sys.Sys.Machine
			m.Reboot()
			clk := m.Core().Clock()
			b.ResetTimer()
			start := clk.Cycles()
			m.PauseAt = uint64(b.N) + 1
			m.Run()
			b.StopTimer()
			b.ReportMetric(float64(clk.Cycles()-start)/float64(b.N), "cycles/op")
		})
	}
}

// BenchmarkBenchmarkRun measures complete fault-free benchmark runs
// (reboot + full workload).
func BenchmarkBenchmarkRun(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sys.Sys.Run()
				if res.Checksum != sys.Golden {
					b.Fatalf("run %d diverged", i)
				}
			}
		})
	}
}

// BenchmarkBuildSystem measures a full system build (compile kernel +
// workload for both ISAs, boot, seal, profile).
func BenchmarkBuildSystem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := kfi.BuildSystem(kfi.P4, kfi.BuildOptions{}); err != nil {
			b.Fatal(err)
		}
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

// --- Snapshot subsystem (fork-from-golden) -------------------------------

// BenchmarkSnapshotSpeedup measures what the snapshot subsystem replaces on
// a fixed-seed code-campaign batch: bringing the guest to each injection's
// trigger point. Replay-from-boot pays reboot + golden-prefix execution per
// target; restore-from-snapshot pays one traced golden pass for the whole
// batch plus an O(dirty pages) restore per target (the fork-from-golden
// chain internal/campaign runs). Both full campaign modes are also executed
// and timed, and their outcome tables must match byte-for-byte — the modes
// are bit-equivalent, only the cost differs. The end-to-end campaign gap is
// smaller than the establishment gap because both modes still execute every
// injection's post-injection tail (Amdahl); both numbers go to
// BENCH_snapshot.json.
func BenchmarkSnapshotSpeedup(b *testing.B) {
	type row struct {
		ReplayNS           int64   `json:"replay_ns"`
		SnapshotNS         int64   `json:"snapshot_ns"`
		Speedup            float64 `json:"speedup"`
		CampaignReplayNS   int64   `json:"campaign_replay_ns"`
		CampaignSnapshotNS int64   `json:"campaign_snapshot_ns"`
		CampaignSpeedup    float64 `json:"campaign_speedup"`
		Injections         int     `json:"injections"`
		Triggers           int     `json:"triggers"`
	}
	rows := map[string]row{}
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			n := 150
			if testing.Short() {
				n = 40
			}
			seed := int64(910) + int64(p)

			// The batch's targets: the same ones the campaign below plans.
			targets, err := kfi.NewTargets(sys, kfi.Code, n, seed)
			if err != nil {
				b.Fatal(err)
			}

			// Full campaigns both ways (untimed by the framework, but
			// measured): the correctness half of the claim.
			t0 := time.Now()
			repTable := kfi.Summarize(campaign.ReplayFromBoot(sys.Sys, sys.Golden, targets)).TableRow("code")
			campReplay := time.Since(t0)
			t0 = time.Now()
			snapC, err := kfi.RunCampaignWith(sys, kfi.Code, n, seed, nil, kfi.ExecOptions{})
			if err != nil {
				b.Fatal(err)
			}
			campSnapshot := time.Since(t0)
			snapTable := snapC.Counts.TableRow("code")
			if repTable != snapTable {
				b.Fatalf("outcome tables diverge between modes:\n  replay:   %s\n  snapshot: %s", repTable, snapTable)
			}

			// Recover the batch's trigger cycles (first execution of each
			// target address) from one traced golden run.
			m := sys.Sys.Machine
			m.Reboot()
			clk := m.Core().Clock()
			firstHit := map[uint32]uint64{}
			m.Core().SetTrace(func(pc uint32, cost uint8) {
				if _, ok := firstHit[pc]; !ok {
					firstHit[pc] = clk.Cycles() - uint64(cost)
				}
			})
			m.Run()
			m.Core().SetTrace(nil)
			var triggers []uint64
			for _, t := range targets {
				if cyc, ok := firstHit[t.Addr]; ok && cyc > 0 {
					triggers = append(triggers, cyc)
				}
			}
			sort.Slice(triggers, func(i, j int) bool { return triggers[i] < triggers[j] })
			if len(triggers) == 0 {
				b.Fatal("no activated targets in the batch")
			}

			var replayTot, snapTot time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Replay-from-boot: reboot and execute the golden prefix for
				// every target.
				t0 := time.Now()
				for _, trig := range triggers {
					m.Reboot()
					m.PauseAt = trig
					m.Run()
				}
				replayTot += time.Since(t0)

				// Restore-from-snapshot: one golden pass chained through the
				// sorted triggers, one dirty-page restore per target.
				t0 = time.Now()
				m.Reboot()
				m.PauseAt = triggers[0]
				m.Run()
				chain := snapshot.Capture(m)
				for _, trig := range triggers[1:] {
					if _, err := chain.Restore(m); err != nil {
						b.Fatal(err)
					}
					if trig > chain.Cycles {
						m.PauseAt = trig
						m.Run()
						if _, err := chain.Recapture(m); err != nil {
							b.Fatal(err)
						}
					}
				}
				if _, err := chain.Restore(m); err != nil {
					b.Fatal(err)
				}
				snapTot += time.Since(t0)
				m.Mem.ClearBaseline()
			}
			b.StopTimer()

			speedup := float64(replayTot) / float64(snapTot)
			campSpeedup := float64(campReplay) / float64(campSnapshot)
			b.ReportMetric(speedup, "speedup")
			b.ReportMetric(float64(replayTot.Nanoseconds())/float64(b.N), "replay-ns/batch")
			b.ReportMetric(float64(snapTot.Nanoseconds())/float64(b.N), "snapshot-ns/batch")
			b.ReportMetric(campSpeedup, "campaign-speedup")
			b.Logf("\n%v code batch (%d injections, %d activated triggers):\n"+
				"  injection-point establishment: replay %v, snapshot %v, speedup %.1fx\n"+
				"  end-to-end campaign:           replay %v, snapshot %v, speedup %.2fx\n%s",
				p, n, len(triggers),
				replayTot/time.Duration(b.N), snapTot/time.Duration(b.N), speedup,
				campReplay, campSnapshot, campSpeedup, snapTable)
			rows[p.Short()] = row{
				ReplayNS:           replayTot.Nanoseconds() / int64(b.N),
				SnapshotNS:         snapTot.Nanoseconds() / int64(b.N),
				Speedup:            speedup,
				CampaignReplayNS:   campReplay.Nanoseconds(),
				CampaignSnapshotNS: campSnapshot.Nanoseconds(),
				CampaignSpeedup:    campSpeedup,
				Injections:         n,
				Triggers:           len(triggers),
			}
		})
	}
	writeBench(b, "BENCH_snapshot.json", rows)
}

// BenchmarkSnapshotRestoreVsReboot isolates the primitive the speedup rests
// on: rewinding a machine to a mid-run checkpoint by copying dirty pages
// versus re-executing the prefix from boot.
func BenchmarkSnapshotRestoreVsReboot(b *testing.B) {
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			m := sys.Sys.Machine
			const trigger = 500_000
			b.Run("replay-to-trigger", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					m.Reboot()
					m.PauseAt = trigger
					m.Run()
				}
			})
			b.Run("restore-from-snapshot", func(b *testing.B) {
				m.Reboot()
				m.PauseAt = trigger
				m.Run()
				snap := snapshot.Capture(m)
				defer m.Mem.ClearBaseline()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.PauseAt = snap.Cycles + 20_000
					m.Run()
					if _, err := snap.Restore(m); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// --- Execution engines ----------------------------------------------------

// peakRig builds a bare core of platform p primed to run a register-dense
// compute loop of iters iterations ending in a halt — the translator's best
// case (every iteration is one fused register-run closure plus one branch),
// mirroring how dynamic-translation papers report peak vs. workload
// throughput. It returns the core (to hand to Descriptor.NewEngine), a reset
// that re-arms the loop without touching memory, and a state snapshot used
// to assert architectural equivalence across engines.
func peakRig(b *testing.B, p kfi.Platform, iters uint32) (core platform.Core, reset func(), state func() string) {
	b.Helper()
	const base = mem.PageSize
	desc, ok := platform.ByName(p.Short())
	if !ok {
		b.Fatalf("no descriptor for %v", p)
	}
	switch p {
	case kfi.P4:
		m := mem.New(1<<16, binary.LittleEndian)
		m.Map(base, mem.PageSize, mem.Present)
		a := cisc.NewAsm()
		a.MovRI(1, int32(iters))
		a.MovRI(2, 0x1234567)
		a.MovRI(3, 7)
		a.MovRI(4, 0)
		a.Label("loop")
		a.AddRR(2, 3)
		a.XorRR(4, 2)
		a.MovRR(5, 4)
		a.Lea(6, 5, 8)
		a.IncR(2)
		a.OrRR(3, 4)
		a.Movzx16(7, 4)
		a.AddRI(5, 13)
		a.NotR(6)
		a.ShlRI(4, 1)
		a.SubRI(1, 1)
		a.Jcc(cisc.CcNE, "loop")
		a.Hlt()
		code, err := a.Link(base, nil)
		if err != nil {
			b.Fatal(err)
		}
		copy(m.RawBytes(base, uint32(len(code))), code)
		core = desc.NewCore(m)
		cpu := cisc.CPUOf(core)
		reset = func() {
			cpu.Reset()
			cpu.Clk = isa.CycleCounter{}
			cpu.EIP = base
		}
		state = func() string {
			return fmt.Sprint(cpu.Regs, cpu.EIP, cpu.Flags, cpu.Clk.Cycles())
		}
		return core, reset, state
	case kfi.G4:
		m := mem.New(1<<16, binary.BigEndian)
		m.Map(base, mem.PageSize, mem.Present)
		a := risc.NewAsm()
		a.Li32(1, int32(iters))
		a.Li32(2, 0x1234567)
		a.Li(3, 7)
		a.Li(4, 0)
		a.Label("loop")
		a.Add(2, 2, 3)
		a.Xor(4, 4, 2)
		a.Mr(5, 4)
		a.Addi(6, 5, 8)
		a.Slwi(7, 4, 1)
		a.Or(3, 3, 4)
		a.Extsh(8, 4)
		a.Addi(5, 5, 13)
		a.Nor(6, 6, 6)
		a.Srawi(9, 2, 3)
		a.Addi(1, 1, -1)
		a.Cmpwi(1, 0)
		a.Bne("loop")
		a.Halt()
		code, err := a.Link(base, nil)
		if err != nil {
			b.Fatal(err)
		}
		copy(m.RawBytes(base, uint32(len(code))), code)
		core = desc.NewCore(m)
		cpu := risc.CPUOf(core)
		reset = func() {
			cpu.Reset()
			cpu.Clk = isa.CycleCounter{}
			cpu.PC = base
		}
		state = func() string {
			return fmt.Sprint(cpu.R, cpu.PC, cpu.CR, cpu.Clk.Cycles())
		}
		return core, reset, state
	}
	b.Fatalf("peakRig: unknown platform %v", p)
	return nil, nil, nil
}

// BenchmarkEngineSpeedup measures the three execution engines (step
// interpreter, predecoded interpreter, basic-block translator) on both
// platforms: raw throughput (instructions per second over the fault-free
// golden run) and end-to-end code-campaign time, per engine. Every engine's
// campaign outcome table must match byte-for-byte — engine choice is a pure
// execution-speed knob, observationally invisible even to injections that
// corrupt already-translated code. Results go to BENCH_exec.json.
func BenchmarkEngineSpeedup(b *testing.B) {
	type engRow struct {
		StepsPerSec     float64 `json:"steps_per_sec"`
		PeakStepsPerSec float64 `json:"peak_steps_per_sec"`
		CampaignNS      int64   `json:"campaign_ns"`
		Blocks          uint64  `json:"translated_blocks,omitempty"`
		Hits            uint64  `json:"closure_cache_hits,omitempty"`
		Invalidations   uint64  `json:"invalidations,omitempty"`
		Fallbacks       uint64  `json:"fallbacks,omitempty"`
	}
	type row struct {
		Steps                uint64            `json:"steps_per_run"`
		PeakSteps            uint64            `json:"peak_steps_per_run"`
		Engines              map[string]engRow `json:"engines"`
		TranslateSpeedup     float64           `json:"translate_vs_predecode_speedup"`
		PeakTranslateSpeedup float64           `json:"peak_translate_vs_predecode_speedup"`
		CampaignSpeedup      float64           `json:"campaign_translate_vs_predecode_speedup"`
		Injections           int               `json:"injections"`
		TablesIdentical      bool              `json:"tables_identical"`
	}
	engines := []kfi.EngineKind{kfi.EngineInterp, kfi.EnginePredecode, kfi.EngineTranslate}
	rows := map[string]row{}
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)
			m := sys.Sys.Machine
			defer m.SetEngine(0)

			// One traced run counts retired instructions — deterministic, so
			// it serves every engine.
			var steps uint64
			m.Core().SetTrace(func(pc uint32, cost uint8) { steps++ })
			if res := sys.Sys.Run(); res.Checksum != sys.Golden {
				b.Fatal("traced golden run diverged")
			}
			m.Core().SetTrace(nil)

			n := 150
			if testing.Short() {
				n = 40
			}
			seed := int64(1310) + int64(p)

			// End-to-end code campaigns on every engine; the outcome tables
			// are the correctness half of the claim.
			er := map[string]engRow{}
			campNS := map[kfi.EngineKind]int64{}
			var baseTable string
			identical := true
			for _, k := range engines {
				t0 := time.Now()
				oc, err := kfi.RunCampaignWith(sys, kfi.Code, n, seed, nil, kfi.ExecOptions{Engine: k})
				if err != nil {
					b.Fatal(err)
				}
				campNS[k] = time.Since(t0).Nanoseconds()
				table := oc.Counts.TableRow("code")
				if baseTable == "" {
					baseTable = table
				} else if table != baseTable {
					identical = false
					b.Errorf("outcome tables diverge between engines:\n  %s: %s\n  %s: %s",
						engines[0], baseTable, k, table)
				}
				er[k.String()] = engRow{
					CampaignNS:    campNS[k],
					Blocks:        oc.EngineStats.Translated,
					Hits:          oc.EngineStats.Hits,
					Invalidations: oc.EngineStats.Invalidations,
					Fallbacks:     oc.EngineStats.Fallbacks,
				}
			}

			// Raw throughput over complete fault-free runs, per engine.
			tot := map[kfi.EngineKind]time.Duration{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, k := range engines {
					if err := m.SetEngine(k); err != nil {
						b.Fatal(err)
					}
					t0 := time.Now()
					if res := sys.Sys.Run(); res.Checksum != sys.Golden {
						b.Fatalf("%v golden run diverged", k)
					}
					tot[k] += time.Since(t0)
				}
			}
			b.StopTimer()

			for _, k := range engines {
				e := er[k.String()]
				e.StepsPerSec = float64(steps) * float64(b.N) / tot[k].Seconds()
				er[k.String()] = e
				b.ReportMetric(e.StepsPerSec, "steps/sec-"+k.String())
			}
			execSpeedup := float64(tot[kfi.EnginePredecode]) / float64(tot[kfi.EngineTranslate])
			campSpeedup := float64(campNS[kfi.EnginePredecode]) / float64(campNS[kfi.EngineTranslate])
			b.ReportMetric(execSpeedup, "translate-speedup")
			b.ReportMetric(campSpeedup, "campaign-speedup")

			// Peak throughput: a register-dense compute loop on a bare core,
			// the translator's best case (the golden runs above are
			// memory-bound, so they understate the dispatch win). The final
			// architectural state and cycle count must agree across engines.
			iters := uint32(400_000)
			if testing.Short() {
				iters = 100_000
			}
			core, reset, state := peakRig(b, p, iters)
			desc, ok := platform.ByName(p.Short())
			if !ok {
				b.Fatalf("no descriptor for %v", p)
			}
			runToHalt := func(eng platform.ExecEngine) {
				for {
					ev := eng.RunUntil(^uint64(0))
					if ev.Kind == isa.EvHalt {
						return
					}
					if ev.Kind != isa.EvNone {
						b.Fatalf("peak loop: unexpected event %v at cause %v", ev.Kind, ev.Cause)
					}
				}
			}
			// One traced interpreter run counts the loop's retired steps.
			var peakSteps uint64
			eng, err := desc.NewEngine(kfi.EngineInterp, core)
			if err != nil {
				b.Fatal(err)
			}
			core.SetTrace(func(pc uint32, cost uint8) { peakSteps++ })
			reset()
			runToHalt(eng)
			core.SetTrace(nil)
			var peakState string
			peakNS := map[kfi.EngineKind]time.Duration{}
			for _, k := range engines {
				eng, err := desc.NewEngine(k, core)
				if err != nil {
					b.Fatal(err)
				}
				reset()
				t0 := time.Now()
				runToHalt(eng)
				peakNS[k] = time.Since(t0)
				if peakState == "" {
					peakState = state()
				} else if s := state(); s != peakState {
					identical = false
					b.Errorf("peak loop final state diverges on %v:\n  %s\nvs\n  %s", k, peakState, s)
				}
				e := er[k.String()]
				e.PeakStepsPerSec = float64(peakSteps) / peakNS[k].Seconds()
				er[k.String()] = e
			}
			peakSpeedup := float64(peakNS[kfi.EnginePredecode]) / float64(peakNS[kfi.EngineTranslate])
			b.ReportMetric(peakSpeedup, "peak-translate-speedup")
			b.Logf("\n%v engines (%d steps/run, %d peak steps, %d injections):\n"+
				"  interp:    %8.2fM steps/s, peak %8.2fM, campaign %v\n"+
				"  predecode: %8.2fM steps/s, peak %8.2fM, campaign %v\n"+
				"  translate: %8.2fM steps/s, peak %8.2fM, campaign %v   (vs predecode: exec %.2fx, peak %.2fx, campaign %.2fx)\n%s",
				p, steps, peakSteps, n,
				er["interp"].StepsPerSec/1e6, er["interp"].PeakStepsPerSec/1e6, time.Duration(campNS[kfi.EngineInterp]),
				er["predecode"].StepsPerSec/1e6, er["predecode"].PeakStepsPerSec/1e6, time.Duration(campNS[kfi.EnginePredecode]),
				er["translate"].StepsPerSec/1e6, er["translate"].PeakStepsPerSec/1e6, time.Duration(campNS[kfi.EngineTranslate]),
				execSpeedup, peakSpeedup, campSpeedup, baseTable)
			rows[p.Short()] = row{
				Steps:                steps,
				PeakSteps:            peakSteps,
				Engines:              er,
				TranslateSpeedup:     execSpeedup,
				PeakTranslateSpeedup: peakSpeedup,
				CampaignSpeedup:      campSpeedup,
				Injections:           n,
				TablesIdentical:      identical,
			}
		})
	}
	writeBench(b, "BENCH_exec.json", rows)
}

// --- Static error-sensitivity analysis ------------------------------------

// BenchmarkStaticSense measures the whole-target static analyzer's costs
// and payoffs on both platforms: the one-time whole-target sweep time (all
// four injection spaces — code, data, stack, sysreg), the fraction of each
// space it proves inert, the cost of a sense-annotated code campaign, and
// the incremental-campaign speedup from a warm per-section outcome cache.
// The warm cached run must reproduce the cold run's table exactly. Results
// go to BENCH_sense.json.
func BenchmarkStaticSense(b *testing.B) {
	type targetRow struct {
		Sites    int     `json:"sites"`
		InertPct float64 `json:"inert_pct"`
	}
	type row struct {
		AnalysisNS      int64                `json:"analysis_ns"`
		Sites           int                  `json:"sites"`
		InertPct        float64              `json:"inert_pct"`
		Targets         map[string]targetRow `json:"targets"`
		CampaignFullNS  int64                `json:"campaign_full_ns"`
		CacheColdNS     int64                `json:"cache_cold_ns"`
		CacheWarmNS     int64                `json:"cache_warm_ns"`
		CacheSpeedup    float64              `json:"cache_speedup"`
		Injections      int                  `json:"injections"`
		TablesIdentical bool                 `json:"tables_identical"`
	}
	rows := map[string]row{}
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			sys := benchSystem(b, p)

			// One-time whole-target analysis cost and the size of the proof
			// it produces across all four injection spaces.
			var rep *staticsense.Report
			var analysis time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				an, err := staticsense.NewAnalyzer(staticsense.Config{
					Image:              sys.Sys.KernelImage,
					Prog:               sys.Sys.Prog,
					Proc:               sys.Sys.Src.Proc,
					KStackSize:         sys.Sys.KStackSize,
					HostReadGlobals:    kernel.HostReadGlobals(),
					HostReadTaskFields: kernel.HostReadTaskFields(),
				})
				if err != nil {
					b.Fatal(err)
				}
				rep = an.Sweep()
				analysis += time.Since(t0)
			}
			b.StopTimer()
			analysisPer := analysis / time.Duration(b.N)
			targets := map[string]targetRow{}
			for _, tr := range rep.Targets {
				frac := 0.0
				if tr.Sites > 0 {
					frac = float64(tr.Inert) / float64(tr.Sites)
				}
				targets[tr.Target] = targetRow{Sites: tr.Sites, InertPct: 100 * frac}
			}

			n := 150
			if testing.Short() {
				n = 40
			}
			seed := int64(2904) + int64(p)

			// End-to-end sense-annotated code campaign.
			t0 := time.Now()
			if _, err := kfi.RunCampaignWith(sys, kfi.Code, n, seed, nil, kfi.ExecOptions{Sense: true}); err != nil {
				b.Fatal(err)
			}
			campFull := time.Since(t0)

			// Incremental campaign: a cold section-cached run fills the
			// per-section cache, a warm re-run replays every row from it.
			cacheDir := b.TempDir()
			t0 = time.Now()
			cold, err := kfi.RunCampaignWith(sys, kfi.Code, n, seed, nil,
				kfi.ExecOptions{Sense: true, SectionCache: cacheDir})
			if err != nil {
				b.Fatal(err)
			}
			cacheCold := time.Since(t0)
			t0 = time.Now()
			warm, err := kfi.RunCampaignWith(sys, kfi.Code, n, seed, nil,
				kfi.ExecOptions{Sense: true, SectionCache: cacheDir})
			if err != nil {
				b.Fatal(err)
			}
			cacheWarm := time.Since(t0)
			if ct, wt := cold.Counts.TableRow("code"), warm.Counts.TableRow("code"); ct != wt {
				b.Fatalf("outcome tables diverge between cold and warm cached campaigns:\n  cold: %s\n  warm: %s", ct, wt)
			}

			cacheSpeedup := float64(cacheCold) / float64(cacheWarm)
			b.ReportMetric(float64(analysisPer.Nanoseconds()), "analysis-ns")
			b.ReportMetric(100*rep.InertFrac(), "inert-%")
			b.ReportMetric(cacheSpeedup, "cache-speedup")
			b.Logf("\n%v static sense (%d sites over %d target classes, %d injections):\n"+
				"  analysis:  %v for the whole target, %.1f%% of flips proven inert\n"+
				"  campaign:  sense-annotated %v\n"+
				"  cache:     cold %v, warm %v, speedup %.2fx\n%s",
				p, rep.Sites, len(rep.Targets), n, analysisPer, 100*rep.InertFrac(),
				campFull, cacheCold, cacheWarm, cacheSpeedup, cold.Counts.TableRow("code"))
			rows[p.Short()] = row{
				AnalysisNS:      analysisPer.Nanoseconds(),
				Sites:           rep.Sites,
				InertPct:        100 * rep.InertFrac(),
				Targets:         targets,
				CampaignFullNS:  campFull.Nanoseconds(),
				CacheColdNS:     cacheCold.Nanoseconds(),
				CacheWarmNS:     cacheWarm.Nanoseconds(),
				CacheSpeedup:    cacheSpeedup,
				Injections:      n,
				TablesIdentical: true,
			}
		})
	}
	writeBench(b, "BENCH_sense.json", rows)
}

// --- Software-implemented fault detection (hardening) ---------------------

// BenchmarkHarden runs the matched hardened-vs-unhardened study end to end on
// both platforms: the same injection plan against a plain build and a build
// carrying the kir.Harden duplication + control-flow-signature passes. It
// reports the detection coverage the hardened kernel achieves over errors
// that manifest, and the two overheads the detection costs — static (kernel
// code bytes) and dynamic (fault-free golden-run cycles). Single-bit and
// adjacent double-bit code campaigns both run; the unhardened side must
// record zero detections. Results go to BENCH_harden.json.
func BenchmarkHarden(b *testing.B) {
	type row struct {
		Opts           string  `json:"opts"`
		CodeOverhead   float64 `json:"code_overhead"`
		CycleOverhead  float64 `json:"cycle_overhead"`
		Injected       int     `json:"injected_per_build"`
		Detected       int     `json:"detected"`
		CoveragePct    float64 `json:"coverage_pct"`
		Burst2Detected int     `json:"burst2_detected"`
	}
	rows := map[string]row{}
	opts := kfi.HardenOptions{Dup: true, CFSig: true}
	for _, p := range kfi.Platforms {
		p := p
		b.Run(p.Short(), func(b *testing.B) {
			n := 120
			if testing.Short() {
				n = 40
			}
			seed := int64(8800) + int64(p)
			specs := []kfi.HardenSpec{
				{Campaign: kfi.Code, N: n, Seed: seed},
				{Campaign: kfi.Code, N: n, Seed: seed, Burst: 2},
				{Campaign: kfi.Stack, N: n / 2, Seed: seed + 1},
				{Campaign: kfi.Data, N: n / 2, Seed: seed + 2},
			}
			var study *kfi.HardenStudy
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var err error
				study, err = kfi.RunHardenStudy(p, 1, opts, specs, nil)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()

			var plain, hard, burst2 []kfi.Result
			for _, r := range study.Rows {
				plain = append(plain, r.Plain...)
				hard = append(hard, r.Hard...)
				if r.Spec.Burst == 2 {
					burst2 = append(burst2, r.Hard...)
				}
			}
			pc, hc := kfi.Summarize(plain), kfi.Summarize(hard)
			if pc.Detected != 0 {
				b.Fatalf("unhardened build recorded %d detections", pc.Detected)
			}
			b.ReportMetric(hc.DetectionCoverage(), "coverage-%")
			b.ReportMetric(study.CodeOverhead(), "code-x")
			b.ReportMetric(study.CycleOverhead(), "cycles-x")
			b.Logf("\n%v hardened (%v) vs unhardened, %d injections per build:\n%s\n%s\n%s\n"+
				"  overhead: code x%.2f (%d -> %d bytes), fault-free run x%.2f (%d -> %d cycles)",
				p, opts, len(hard),
				stats.CoverageHeader(),
				hc.CoverageRow("hardened"),
				pc.CoverageRow("unhardened"),
				study.CodeOverhead(), study.CodeBytes, study.HardCodeBytes,
				study.CycleOverhead(), study.GoldenCycles, study.HardGoldenCycles)
			rows[p.Short()] = row{
				Opts:           opts.String(),
				CodeOverhead:   study.CodeOverhead(),
				CycleOverhead:  study.CycleOverhead(),
				Injected:       len(hard),
				Detected:       hc.Detected,
				CoveragePct:    hc.DetectionCoverage(),
				Burst2Detected: kfi.Summarize(burst2).Detected,
			}
		})
	}
	writeBench(b, "BENCH_harden.json", rows)
}
