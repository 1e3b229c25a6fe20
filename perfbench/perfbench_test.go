package main

import (
	"testing"
	"time"
)

// smallSizes shrinks every workload so the whole suite runs in seconds.
func smallSizes(workload string) sizes {
	sz := defaultSizes(workload)
	sz.setups = 1
	sz.tcpNodes = 24
	sz.tcpWarm = 200 * time.Millisecond
	sz.standingSubs = 16
	sz.period = 100 * time.Millisecond
	sz.writeEvery = 20 * time.Millisecond
	sz.groupsN = 400
	sz.scaleN = 600
	sz.scaleKeys = 50
	sz.scalePeriod = 100 * time.Millisecond
	sz.exactQueries = 8
	sz.captureOps = 10
	return sz
}

func smallParams(workload string, seed int64, trace bool) params {
	return params{seed: seed, seconds: time.Second, trace: trace, nproc: 2, sizes: smallSizes(workload)}
}

// TestWorkloadsAnswerExactly runs every workload small, untraced and
// traced, and requires every operation to succeed, every checked answer
// to match the oracle and every metric to be printed.
func TestWorkloadsAnswerExactly(t *testing.T) {
	for name, run := range workloads {
		for _, trace := range []bool{false, true} {
			o, err := run(smallParams(name, 3, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if o.attempted == 0 || o.failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed, %d wrong (first failure: %s)", name, trace, o.attempted, o.failed, o.wrong, o.firstErr)
			}
			if _, err := resultLine(o, trace); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			if !trace {
				for _, m := range o.metrics {
					if m.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, m.Value)
					}
				}
			}
		}
	}
}

// TestSimCountsFollowSeed requires the simulator workloads' exact
// counts to repeat for one seed and to change with the seed, which
// shows the seed reaches the inputs.
func TestSimCountsFollowSeed(t *testing.T) {
	exact := func(name string, seed int64) [2]float64 {
		o, err := workloads[name](smallParams(name, seed, false))
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		var out [2]float64
		for _, m := range o.metrics {
			switch m.Name {
			case "msgs_per_op":
				out[0] = m.Value
			case "p50_ms":
				out[1] = m.Value
			}
		}
		return out
	}
	for _, name := range []string{"sim-groups", "sim-scale"} {
		a, b, c := exact(name, 5), exact(name, 5), exact(name, 6)
		if a != b {
			t.Errorf("%s: seed 5 gave msgs_per_op, p50_ms = %v then %v", name, a, b)
		}
		if a[0] == c[0] && a[1] == c[1] {
			t.Errorf("%s: seeds 5 and 6 gave the same counts %v", name, a)
		}
	}
}
