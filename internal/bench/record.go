package bench

import (
	"fmt"

	"finbench/internal/benchreg"
	"finbench/internal/parallel"
)

// Collect runs every registered experiment's Measure mode (or just the
// one named by only) at the given scale under the given sampling options
// and assembles a benchreg Snapshot: one record per measured kernel row,
// plus each experiment's best-optimized op mix. CreatedAt and Mode are
// left for the caller (cmd/benchreg) to stamp.
func Collect(scale float64, opts benchreg.Opts, only string) (*benchreg.Snapshot, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("bench: scale %g outside (0,1]", scale)
	}

	snap := &benchreg.Snapshot{
		Schema:         benchreg.SchemaVersion,
		Scale:          scale,
		Opts:           opts,
		Env:            benchreg.Fingerprint(),
		CalibOpsPerSec: benchreg.Calibrate(opts),
		Mixes:          map[string]map[string]uint64{},
	}
	schedBefore := parallel.Sched()
	matched := false
	for _, e := range Experiments() {
		if only != "" && only != "all" && e.ID != only {
			continue
		}
		matched = true
		if e.Measure != nil {
			res, err := e.Measure(scale)
			if err != nil {
				return nil, fmt.Errorf("bench: %s measure: %w", e.ID, err)
			}
			res.Time(opts)
			for _, row := range res.Rows {
				s := row.Host
				snap.Kernels = append(snap.Kernels, benchreg.Record{
					Experiment:  e.ID,
					Label:       row.Label,
					Units:       res.Units,
					Items:       s.Items,
					Reps:        s.Reps,
					MedianSec:   s.MedianSec,
					MADSec:      s.MADSec,
					OpsPerSec:   s.OpsPerSec,
					OpsMAD:      s.OpsMAD,
					AllocsPerOp: s.AllocsPerOp,
					GateAllocs:  row.GateAllocs,
				})
			}
		}
		if e.Mix != nil {
			c, err := e.Mix(scale)
			if err != nil {
				return nil, fmt.Errorf("bench: %s mix: %w", e.ID, err)
			}
			snap.Mixes[e.ID] = c.Map()
		}
	}
	if !matched {
		return nil, fmt.Errorf("bench: no experiment matches %q", only)
	}
	if len(snap.Kernels) == 0 {
		return nil, fmt.Errorf("bench: no measurable kernels selected (experiment %q has no Measure mode)", only)
	}
	// Record how the pool scheduled the run: the counter delta attributes
	// the snapshot's timings to actual fork-join behavior (serial fast
	// paths vs dispatched tasks, handoffs vs helping-join steals).
	snap.Sched = parallel.Sched().Delta(schedBefore).Map()
	return snap, nil
}
