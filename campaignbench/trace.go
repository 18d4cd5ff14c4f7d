package main

import "time"

// span is one timed call into a layer, made from the benchmark's own code.
// Per-set-up work has round -1.
type span struct {
	Layer string
	Round int
	Dur   time.Duration
	// Probe marks a call the untraced run makes only inside a larger span
	// (the warm RunWith on incremental): it counts toward trace coverage but
	// not toward the layer sum campaign.unattributed_ms subtracts.
	Probe bool
}

// tracer keeps spans and counters in memory until the run ends.
type tracer struct {
	round  int
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{round: -1, counts: map[string]float64{}} }

// do times fn as a span of layer.
func (t *tracer) do(layer string, fn func()) { t.record(layer, false, fn) }

// probe times fn as a probe span of layer.
func (t *tracer) probe(layer string, fn func()) { t.record(layer, true, fn) }

func (t *tracer) record(layer string, probe bool, fn func()) {
	start := time.Now()
	fn()
	t.spans = append(t.spans, span{Layer: layer, Round: t.round, Dur: time.Since(start), Probe: probe})
}

// add bumps a counter.
func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// durations returns the durations of every span of layer.
func (t *tracer) durations(layer string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Layer == layer {
			out = append(out, s.Dur)
		}
	}
	return out
}

// total sums the durations of every span of layer.
func (t *tracer) total(layer string) time.Duration {
	var d time.Duration
	for _, s := range t.durations(layer) {
		d += s
	}
	return d
}

// roundSums returns, for traced round k, the sum of its layer spans and of
// all its spans.
func (t *tracer) roundSums(k int) (layers, all time.Duration) {
	for _, s := range t.spans {
		if s.Round != k {
			continue
		}
		all += s.Dur
		if !s.Probe {
			layers += s.Dur
		}
	}
	return layers, all
}
