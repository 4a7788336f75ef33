package experiment

import (
	"context"
	"time"

	"repro/internal/metrics"
)

// Table3Defenses are the rows of the paper's Table 3 (plus the baseline used
// as the reference).
var Table3Defenses = []string{"none", "wdp", "ldp", "cdp", "gc", "sa", "dinar"}

// CostRow is one defense's measured costs.
type CostRow struct {
	Defense string
	// ClientTrain is the mean per-round client-side duration (local training
	// plus client-side defense work).
	ClientTrain time.Duration
	// ServerAgg is the mean server-side aggregation duration.
	ServerAgg time.Duration
	// DefenseBytes is the defense-attributed extra buffer memory.
	DefenseBytes uint64
	// PeakTrainBytes / PeakAggBytes are the peak heap-in-use sampled
	// during client training and server aggregation respectively. Both
	// are process-global (they include concurrently training siblings —
	// see metrics.CostMeter), so they are upper bounds per phase, not
	// per-client measurements.
	PeakTrainBytes, PeakAggBytes uint64
	// TrainOverheadPct / AggOverheadPct are relative to the no-defense
	// baseline, as the paper reports them.
	TrainOverheadPct, AggOverheadPct float64
}

// Table3Result reproduces Table 3 (overheads of FL defense mechanisms).
type Table3Result struct {
	Dataset string
	Rows    []CostRow
}

// Table3 runs each defense on the dataset (paper: GTSRB + VGG11) and
// measures client-side training time, server-side aggregation time, and
// defense memory, relative to the undefended baseline.
func Table3(ctx context.Context, o Options, dataset string, defenses []string) (*Table3Result, error) {
	if dataset == "" {
		dataset = "gtsrb"
	}
	if len(defenses) == 0 {
		defenses = Table3Defenses
	}
	res := &Table3Result{Dataset: dataset}
	var baseTrain, baseAgg time.Duration
	for _, dname := range defenses {
		run, err := o.RunNamed(ctx, dataset, dname)
		if err != nil {
			return nil, err
		}
		rep := run.Sys.Meter.Report()
		row := CostRow{
			Defense:        dname,
			ClientTrain:    rep.MeanClientTrain,
			ServerAgg:      rep.MeanServerAgg,
			DefenseBytes:   rep.DefenseBytes,
			PeakTrainBytes: rep.PeakTrainBytes,
			PeakAggBytes:   rep.PeakAggBytes,
		}
		if dname == "none" {
			baseTrain, baseAgg = rep.MeanClientTrain, rep.MeanServerAgg
		}
		if baseTrain > 0 {
			row.TrainOverheadPct = metrics.Overhead(rep.MeanClientTrain, baseTrain)
		}
		if baseAgg > 0 {
			row.AggOverheadPct = metrics.Overhead(rep.MeanServerAgg, baseAgg)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the cost comparison.
func (r *Table3Result) Table() *metrics.Table {
	t := metrics.NewTable("Table 3: overhead of FL defense mechanisms vs baseline — "+r.Dataset,
		"Defense", "Client train/round", "Train overhead (%)", "Server agg", "Agg overhead (%)", "Defense buffers (KiB)",
		"Peak train heap (MiB)", "Peak agg heap (MiB)")
	for _, row := range r.Rows {
		t.AddRow(row.Defense, row.ClientTrain.Round(time.Microsecond), row.TrainOverheadPct,
			row.ServerAgg.Round(time.Microsecond), row.AggOverheadPct, float64(row.DefenseBytes)/1024,
			float64(row.PeakTrainBytes)/(1024*1024), float64(row.PeakAggBytes)/(1024*1024))
	}
	return t
}
