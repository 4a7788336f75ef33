package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/fl"
	"repro/internal/flnet"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Direct probes time single calls into each layer's public functions at the
// workload's shape. Their inputs are the states the traced federation
// actually exchanged in its last round — flate and delta coding depend on
// content, so random vectors would measure a different codec.

// probeInputs are the captured states the probes run on.
type probeInputs struct {
	round   int          // the captured round (the segment's last)
	bcast   []float64    // that round's broadcast, as the clients decoded it
	next    []float64    // the aggregate that followed it (the final state)
	uploads []*fl.Update // every client's post-defense upload of that round
}

func probeInputsOf(seg *segment) (probeInputs, error) {
	in := probeInputs{round: seg.rounds - 1, bcast: seg.timelines[0].lastGlobal, next: seg.finalState}
	for i, tl := range seg.timelines {
		if tl.lastUpload == nil || tl.lastUpload.Round != in.round {
			return in, fmt.Errorf("probes: no captured upload of round %d from client %d", in.round, i)
		}
		in.uploads = append(in.uploads, tl.lastUpload)
	}
	if len(in.bcast) != len(in.next) || len(in.next) == 0 {
		return in, fmt.Errorf("probes: captured broadcast has %d values, final state %d", len(in.bcast), len(in.next))
	}
	return in, nil
}

// medianMs calls fn n times and returns the median duration in
// milliseconds.
func medianMs(n int, fn func() error) (float64, error) {
	d := make([]time.Duration, n)
	for i := range d {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		d[i] = time.Since(start)
	}
	return ms(percentile(d, 0.5)), nil
}

// wireCaps is the capability set a session of w negotiates.
func wireCaps(w workload) uint32 {
	caps := flnet.CapBinary | flnet.CapFlate | flnet.CapDelta
	if w.Quantize == "int8" {
		caps |= flnet.CapQuantInt8 | flnet.CapTopK
	}
	return caps
}

// probeMetrics are the metrics the direct probes produce.
var probeMetrics = []string{
	"flnet.encode_global_ms", "flnet.decode_global_ms", "flnet.encode_update_ms", "flnet.decode_update_ms",
	"fl.quant_encode_ms", "fl.quant_apply_ms",
	"fl.fedavg_ms", "fl.fold_ms_per_update", "fl.finalize_ms", "fl.screen_apply_ms",
	"checkpoint.save_ms", "checkpoint.load_ms", "checkpoint.file_bytes",
	"nn.forward_ms_per_batch", "nn.backward_ms_per_batch", "optim.step_ms_per_batch", "nn.batches_per_round",
}

// runProbes fills out with every probe metric of w, calling each probed
// function calls times. Only the layers w runs through are probed; the
// metrics of a layer it bypasses stay 0.
func runProbes(w workload, seed int64, in probeInputs, ckptDir string, calls int, out map[string]float64) error {
	for _, name := range probeMetrics {
		out[name] = 0
	}
	if !w.InProc {
		if err := probeWire(w, seed, in, calls, out); err != nil {
			return fmt.Errorf("wire probes: %w", err)
		}
		if err := probeCheckpoint(w, seed, in, ckptDir, calls, out); err != nil {
			return fmt.Errorf("checkpoint probes: %w", err)
		}
	}
	if w.Quantize != "" {
		if err := probeQuant(w, seed, in, calls, out); err != nil {
			return fmt.Errorf("quantizer probes: %w", err)
		}
	}
	if err := probeAggregation(w, in, calls, out); err != nil {
		return fmt.Errorf("aggregation probes: %w", err)
	}
	if err := probeTraining(w, seed, calls, out); err != nil {
		return fmt.Errorf("training probes: %w", err)
	}
	if w.InProc {
		// fl.NewSystem hides the set-up steps the TCP segments time
		// themselves.
		if err := probeSetup(w, seed, out); err != nil {
			return fmt.Errorf("set-up probes: %w", err)
		}
	}
	return nil
}

// probeWire times WriteMessageWith/ReadMessageWith on the broadcast that
// would follow the captured round and on a captured upload, with the caps
// the workload negotiates.
func probeWire(w workload, seed int64, in probeInputs, calls int, out map[string]float64) error {
	// Both ends anchor on the captured round's broadcast: the next
	// broadcast deltas against it and the round's upload diffs against it.
	codec := flnet.NewCodec(wireCaps(w), seed, w.TopK, func(round int) []float64 {
		if round == in.round {
			return in.bcast
		}
		return nil
	})
	global := &flnet.Message{Kind: flnet.KindGlobal, Round: in.round + 1, State: in.next}
	if kind := codec.QuantKind(); kind != fl.QuantNone {
		// The server's canonical quantized delta broadcast (prepareBroadcast).
		canon, err := fl.EncodeDelta(kind, seed, -1, in.round+1, in.round, in.bcast, in.next, 0)
		if err != nil {
			return err
		}
		if global.State, err = canon.Apply(in.bcast, nil); err != nil {
			return err
		}
		global.Canon = canon
	}
	up := in.uploads[0]
	update := &flnet.Message{Kind: flnet.KindUpdate, ClientID: up.ClientID, Round: up.Round, State: up.State, NumSamples: up.NumSamples}

	for _, p := range []struct {
		name string
		msg  *flnet.Message
	}{{"global", global}, {"update", update}} {
		var frame bytes.Buffer
		if err := flnet.WriteMessageWith(&frame, p.msg, codec); err != nil {
			return err
		}
		var err error
		if out["flnet.encode_"+p.name+"_ms"], err = medianMs(calls, func() error {
			return flnet.WriteMessageWith(io.Discard, p.msg, codec)
		}); err != nil {
			return err
		}
		// Decode into a reused message, as both ends of a session do.
		got := &flnet.Message{State: flnet.GetState()}
		if out["flnet.decode_"+p.name+"_ms"], err = medianMs(calls, func() error {
			return flnet.ReadMessageWith(bytes.NewReader(frame.Bytes()), got, codec)
		}); err != nil {
			return err
		}
		// Quantized uploads are lossy by design; every other frame must
		// decode to exactly the state it encoded.
		lossless := p.msg.Kind != flnet.KindUpdate || codec.QuantKind() == fl.QuantNone
		if len(got.State) != len(p.msg.State) || lossless && !equalStates(got.State, p.msg.State) {
			return fmt.Errorf("%s frame did not decode to the state it encoded", p.name)
		}
		flnet.PutState(got.State)
	}

	return nil
}

// probeQuant times the quantizer on its own, with the workload's settings:
// EncodeDelta of a captured upload against its broadcast, and Apply of the
// payload.
func probeQuant(w workload, seed int64, in probeInputs, calls int, out map[string]float64) error {
	kind, err := fl.ParseQuantKind(w.Quantize)
	if err != nil {
		return err
	}
	up := in.uploads[0]
	var payload *fl.DeltaPayload
	if out["fl.quant_encode_ms"], err = medianMs(calls, func() (err error) {
		payload, err = fl.EncodeDelta(kind, seed, up.ClientID, up.Round, up.Round, in.bcast, up.State, w.TopK)
		return err
	}); err != nil {
		return err
	}
	var dst []float64
	out["fl.quant_apply_ms"], err = medianMs(calls, func() (err error) {
		dst, err = payload.Apply(in.bcast, dst)
		return err
	})
	return err
}

// probeAggregation times, on the captured cohort, the aggregation rule the
// workload runs — the materialized one, or the streaming one's two steps —
// and the update screen.
func probeAggregation(w workload, in probeInputs, calls int, out map[string]float64) error {
	var err error
	if !w.Streaming {
		if out["fl.fedavg_ms"], err = medianMs(calls, func() error {
			_, err := fl.FedAvg(in.uploads)
			return err
		}); err != nil {
			return err
		}
	} else {
		agg := fl.NewStreamingFedAvg()
		var folds, finals []time.Duration
		for i := 0; i < calls; i++ {
			agg.Begin(in.round, in.bcast)
			for _, u := range in.uploads {
				start := time.Now()
				if err := agg.Fold(u); err != nil {
					return err
				}
				folds = append(folds, time.Since(start))
			}
			start := time.Now()
			if _, err := agg.Finalize(); err != nil {
				return err
			}
			finals = append(finals, time.Since(start))
		}
		out["fl.fold_ms_per_update"] = ms(percentile(folds, 0.5))
		out["fl.finalize_ms"] = ms(percentile(finals, 0.5))
	}

	screen := fl.NewScreen(fl.ScreenConfig{})
	out["fl.screen_apply_ms"], err = medianMs(calls, func() error {
		if kept, _ := screen.Apply(in.round, in.bcast, in.uploads); len(kept) != len(in.uploads) {
			return fmt.Errorf("screen kept %d of %d captured updates", len(kept), len(in.uploads))
		}
		return nil
	})
	return err
}

// probeCheckpoint times SaveFile (fsync included) and LoadFile on the
// snapshot the server writes after the captured round, in the directory the
// federation checkpointed to.
func probeCheckpoint(w workload, seed int64, in probeInputs, ckptDir string, calls int, out map[string]float64) error {
	screenState := fl.NewScreen(fl.ScreenConfig{}).ExportState()
	kind, err := fl.ParseQuantKind(w.Quantize)
	if err != nil {
		return err
	}
	snap := &checkpoint.Snapshot{
		Dataset: w.Dataset,
		Round:   in.round + 1,
		State:   in.next,
		Quarantine: &checkpoint.QuarantineState{
			Offenses: screenState.Offenses, BlockedUntil: screenState.BlockedUntil, Norms: screenState.Norms,
		},
		// Delta broadcasts keep the last canonical broadcast in the
		// snapshot, so the file holds two states.
		Wire: &checkpoint.WireState{
			Compress: true, Quantize: kind.String(), TopK: w.TopK, Delta: true,
			BcastRound: in.round, Bcast: in.bcast,
		},
	}
	if kind != fl.QuantNone {
		snap.Wire.QuantSeed = seed
	}
	path := filepath.Join(ckptDir, "probe.ckpt")
	if out["checkpoint.save_ms"], err = medianMs(calls, func() error {
		return checkpoint.SaveFile(path, snap)
	}); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	out["checkpoint.file_bytes"] = float64(st.Size())
	out["checkpoint.load_ms"], err = medianMs(calls, func() error {
		got, err := checkpoint.LoadFile(path)
		if err == nil && !equalStates(got.State, snap.State) {
			err = fmt.Errorf("checkpoint did not load the state it saved")
		}
		return err
	})
	return err
}

// probeTraining times the three steps of fl.Client.TrainLocal's batch loop
// on client 0's shard and model. The backward figure includes the loss
// evaluation that produces its input gradient.
func probeTraining(w workload, seed int64, calls int, out map[string]float64) error {
	spec, _, shards, err := clientDataset(w, seed)
	if err != nil {
		return err
	}
	trainer, err := newTrainer(spec, shards[0], seed, 0)
	if err != nil {
		return err
	}
	m, opt := trainer.Model, trainer.Optimizer
	params, grads := m.Params(), m.Grads()
	var loss nn.SoftmaxCrossEntropy
	rng := rand.New(rand.NewSource(seed))
	var fwd, bwd, step []time.Duration
	batches := 0
	for len(fwd) < calls {
		opt.Reset()
		batches = 0
		err := shards[0].Batches(batchSize, rng, func(x *tensor.Tensor, y []int) error {
			t0 := time.Now()
			logits := m.Forward(x, true)
			t1 := time.Now()
			res, err := loss.Eval(logits, y)
			if err != nil {
				return err
			}
			m.Backward(res.Grad)
			t2 := time.Now()
			opt.Step(params, grads)
			t3 := time.Now()
			fwd, bwd, step = append(fwd, t1.Sub(t0)), append(bwd, t2.Sub(t1)), append(step, t3.Sub(t2))
			batches++
			return nil
		})
		if err != nil {
			return err
		}
	}
	out["nn.forward_ms_per_batch"] = ms(percentile(fwd, 0.5))
	out["nn.backward_ms_per_batch"] = ms(percentile(bwd, 0.5))
	out["optim.step_ms_per_batch"] = ms(percentile(step, 0.5))
	out["nn.batches_per_round"] = float64(batches * localEpochs)
	return nil
}

// probeSetup times the two set-up steps fl.NewSystem performs internally;
// there is nothing to register in process.
func probeSetup(w workload, seed int64, out map[string]float64) error {
	start := time.Now()
	spec, _, shards, err := clientDataset(w, seed)
	if err != nil {
		return err
	}
	out["data.generate_ms"] = ms(time.Since(start))
	start = time.Now()
	for i := 0; i < numClients; i++ {
		if _, err := newTrainer(spec, shards[i], seed, i); err != nil {
			return err
		}
	}
	out["model.build_ms"] = ms(time.Since(start))
	out["flnet.register_ms"] = 0
	return nil
}
