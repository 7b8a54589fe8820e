package main

// The replica drives one scenario trial through the public layer calls
// sim.Run makes for a dynamic spec — the same setup-stream draws,
// ratedapt.OpenTransferDynamic, and the BeginSlot / DecodeSlot /
// FinishSlot loop on engine-pooled resources — so the benchmark can
// time each call from its own files without instrumenting the program.
// Its outcomes are checked against sim.Run's, trial by trial, so the
// spans it reports describe the work sim.Run does.

import (
	"fmt"
	"reflect"
	"time"

	"repro/internal/bits"
	"repro/internal/channel"
	"repro/internal/engine"
	"repro/internal/epc"
	"repro/internal/identify"
	"repro/internal/prng"
	"repro/internal/ratedapt"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// trialOutcome is one trial's decisions in roster order, in the shape
// of sim.BuzzTrial.
type trialOutcome struct {
	verified    []bool
	payloads    []bits.Vector
	retired     []bool
	slotsUsed   int
	rowsRetired int
	millis      float64
}

// matches reports whether sim.Run decided this trial identically.
func (o *trialOutcome) matches(bt *sim.BuzzTrial) bool {
	return reflect.DeepEqual(o.verified, bt.Verified) &&
		reflect.DeepEqual(o.payloads, bt.Payloads) &&
		reflect.DeepEqual(o.retired, bt.Retired) &&
		o.slotsUsed == bt.SlotsUsed && o.rowsRetired == bt.RowsRetired && o.millis == bt.Millis
}

// laneTrace is one trial's spans. With full unset only the whole-slot
// latency is taken (two clock reads per slot).
type laneTrace struct {
	full bool

	slotUs                      []float64 // BeginSlot call to FinishSlot return
	beginUs, decodeUs, finishUs []float64

	simNs      int64 // setup draws, roster build and scoring
	ratedaptNs int64 // lane open, BeginSlot and FinishSlot self time, result and close
	bpNs       int64 // DecodeSlot
	identNs    int64 // re-identification hook, called from BeginSlot
	bursts     int

	slots, joined, colliders, accepted int64
}

// trialMessages re-derives the payloads trial sent: the first draws of
// the trial's setup stream, as sim.Run and the replay client draw them.
func trialMessages(spec scenario.Spec, kTot, trial int) []bits.Vector {
	setup := prng.NewSource(prng.Mix2(spec.Seed, uint64(trial)))
	msgs := make([]bits.Vector, kTot)
	for i := range msgs {
		msgs[i] = bits.Random(setup, spec.Workload.MessageBits)
	}
	return msgs
}

// replicaRun runs every trial of spec through the replica on eng's
// worker pool (the pool sim.Run's own engine uses: one worker per core,
// pooled resources recycled between trials).
func replicaRun(eng *engine.SessionManager, spec scenario.Spec, rost scenario.Roster, full bool) ([]trialOutcome, []*laneTrace, error) {
	if !spec.Dynamic() {
		return nil, nil, fmt.Errorf("replica: spec %q is static; only dynamic specs are replicated", spec.Name)
	}
	outs := make([]trialOutcome, spec.Trials)
	traces := make([]*laneTrace, spec.Trials)
	err := eng.RunBatch(spec.Trials, func(trial int, res *engine.Resources) error {
		tr := &laneTrace{full: full}
		traces[trial] = tr
		o, err := replicaTrial(spec, rost, trial, res, tr)
		outs[trial] = o
		return err
	})
	return outs, traces, err
}

func replicaTrial(spec scenario.Spec, rost scenario.Roster, trial int, res *engine.Resources, tr *laneTrace) (trialOutcome, error) {
	t0 := time.Now()
	crc, err := spec.CRCKind()
	if err != nil {
		return trialOutcome{}, err
	}
	windows := rost.Windows
	kTot := len(windows)
	frameLen := spec.Workload.MessageBits + crc.Width()

	// Setup draws, in sim.Run's order.
	setup := prng.NewSource(prng.Mix2(spec.Seed, uint64(trial)))
	msgs := make([]bits.Vector, kTot)
	for i := range msgs {
		msgs[i] = bits.Random(setup, spec.Workload.MessageBits)
	}
	ch := channel.NewFromSNRBand(kTot, spec.Channel.SNRLodB, spec.Channel.SNRHidB, setup)
	ch.AGCNoiseFraction = spec.Channel.AGCNoiseFraction
	seeds := make([]uint64, kTot)
	for i := range seeds {
		seeds[i] = setup.Uint64()
	}
	salt := setup.Uint64()
	par := res.Parallelism
	if spec.Decode.Parallelism > 0 {
		par = spec.Decode.Parallelism
	}
	rcfg := ratedapt.Config{
		SessionSalt: salt,
		CRC:         crc,
		Restarts:    spec.Decode.Restarts,
		MaxSlots:    spec.Decode.MaxSlots,
		Scratch:     res.Scratch,
		Session:     res.Session,
		Parallelism: par,
	}
	switch spec.Decode.Window {
	case scenario.WindowAuto:
		rcfg.Window = ratedapt.AutoWindow()
	case scenario.WindowFixed:
		rcfg.Window = ratedapt.FixedWindow(spec.Decode.DecodeWindow)
	case scenario.WindowPerTag:
		rcfg.Window = ratedapt.PerTagWindow(spec.Decode.WindowSoft)
	}
	procSeed := setup.Uint64()
	proc := spec.NewProcessRoster(ch, procSeed, rost.Rho)
	roster := make([]ratedapt.RosterTag, kTot)
	for i := range roster {
		roster[i] = ratedapt.RosterTag{
			Seed:       seeds[i],
			Message:    msgs[i],
			ArriveSlot: windows[i].ArriveSlot,
			DepartSlot: windows[i].DepartSlot,
		}
	}
	var identErr error
	var hook func(slot int, arriving []int) int
	if a := spec.Workload.Arrivals; a != nil && a.Reident == scenario.ReidentAnalytic {
		hook = analyticReident(windows)
	} else {
		hook = simulatedReident(roster, proc, salt, res, &identErr)
	}
	rcfg.OnArrival = func(slot int, arriving []int) int {
		s := time.Now()
		n := hook(slot, arriving)
		tr.identNs += time.Since(s).Nanoseconds()
		tr.bursts++
		return n
	}
	t1 := time.Now()
	tr.simNs += t1.Sub(t0).Nanoseconds()

	ln, err := ratedapt.OpenTransferDynamic(rcfg, roster, proc, proc, setup.Fork(1), setup.Fork(2))
	if err != nil {
		return trialOutcome{}, err
	}
	t2 := time.Now()
	tr.ratedaptNs += t2.Sub(t1).Nanoseconds()
	for {
		a := time.Now()
		identBefore := tr.identNs
		if !ln.BeginSlot() {
			tr.ratedaptNs += time.Since(a).Nanoseconds() - (tr.identNs - identBefore)
			break
		}
		if !tr.full {
			j := ln.SlotJob()
			j.S.DecodeSlot(j.Slot, j.Locked, j.Base, j.MinMargin, j.Ambiguous)
			ln.FinishSlot()
			tr.slotUs = append(tr.slotUs, us(time.Since(a)))
			tr.slots++
			continue
		}
		b := time.Now()
		j := ln.SlotJob()
		tr.joined += int64(len(j.Locked))
		j.S.DecodeSlot(j.Slot, j.Locked, j.Base, j.MinMargin, j.Ambiguous)
		c := time.Now()
		ln.FinishSlot()
		d := time.Now()
		begin := b.Sub(a) - time.Duration(tr.identNs-identBefore)
		tr.beginUs = append(tr.beginUs, us(begin))
		tr.decodeUs = append(tr.decodeUs, us(c.Sub(b)))
		tr.finishUs = append(tr.finishUs, us(d.Sub(c)))
		tr.slotUs = append(tr.slotUs, us(d.Sub(a)))
		tr.ratedaptNs += begin.Nanoseconds() + d.Sub(c).Nanoseconds()
		tr.bpNs += c.Sub(b).Nanoseconds()
		tr.slots++
	}
	t3 := time.Now()
	// Drained as sim.Run drains it; the bp counts come from sim.Run's
	// own outcome.
	_ = ln.TakeDecodeCost()
	rb, err := ln.Result()
	ln.Close()
	if err != nil {
		return trialOutcome{}, err
	}
	if identErr != nil {
		return trialOutcome{}, identErr
	}
	t4 := time.Now()
	tr.ratedaptNs += t4.Sub(t3).Nanoseconds()

	for _, p := range rb.Progress {
		tr.colliders += int64(p.Colliders)
	}
	tr.accepted += int64(countTrue(rb.Verified))
	o := trialOutcome{
		verified:    append([]bool(nil), rb.Verified...),
		payloads:    make([]bits.Vector, kTot),
		retired:     append([]bool(nil), rb.Retired...),
		slotsUsed:   rb.SlotsUsed,
		rowsRetired: rb.RowsRetired,
		millis:      epc.UplinkMicros(float64(rb.SlotsUsed*frameLen))/1000 + epc.UplinkMicros(float64(rb.ReidentBitSlots))/1000,
	}
	for i, ok := range rb.Verified {
		if ok {
			o.payloads[i] = bits.PayloadOf(rb.Frames[i], crc)
		}
	}
	tr.simNs += time.Since(t4).Nanoseconds()
	return o, nil
}

func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// analyticReident charges identify.ExpectedSlots for the population
// present at each arrival burst — sim.Run's hook for reident mode
// "analytic", with presence tracked by two cursors over the FIFO
// windows.
func analyticReident(windows []scenario.Window) func(slot int, arriving []int) int {
	arrived, departed := 0, 0
	return func(slot int, arriving []int) int {
		for arrived < len(windows) {
			a := windows[arrived].ArriveSlot
			if a < 1 {
				a = 1
			}
			if a > slot {
				break
			}
			arrived++
		}
		for departed < len(windows) && windows[departed].DepartSlot > 0 && windows[departed].DepartSlot <= slot {
			departed++
		}
		return identify.ExpectedSlots(arrived - departed)
	}
}

// simulatedReident runs the three-stage identification protocol over
// the tags present at each arrival burst — sim.Run's default hook.
func simulatedReident(roster []ratedapt.RosterTag, proc channel.Process, salt uint64, res *engine.Resources, errOut *error) func(slot int, arriving []int) int {
	return func(slot int, arriving []int) int {
		if *errOut != nil {
			return 0
		}
		m := proc.ModelAt(slot)
		var ids []uint64
		var taps []complex128
		for i := range roster {
			rt := &roster[i]
			if rt.Arrive() <= slot && (rt.DepartSlot == 0 || rt.DepartSlot > slot) {
				ids = append(ids, rt.Seed)
				taps = append(taps, m.Taps[i])
			}
		}
		ch := channel.NewExact(taps, m.NoisePower)
		ch.AGCNoiseFraction = m.AGCNoiseFraction
		burstSeed := prng.Mix3(salt, 0x1DE7, uint64(slot))
		r, err := identify.Run(identify.Config{Salt: burstSeed, Scratch: res.Scratch}, ids, ch, prng.NewSource(prng.Mix2(burstSeed, 0xA1)))
		if err != nil {
			*errOut = fmt.Errorf("replica: re-identification at slot %d: %w", slot, err)
			return 0
		}
		return r.TotalSlots
	}
}

// mergeTraces folds per-trial spans into one.
func mergeTraces(into *laneTrace, trs []*laneTrace) {
	for _, t := range trs {
		if t == nil {
			continue
		}
		into.slotUs = append(into.slotUs, t.slotUs...)
		into.beginUs = append(into.beginUs, t.beginUs...)
		into.decodeUs = append(into.decodeUs, t.decodeUs...)
		into.finishUs = append(into.finishUs, t.finishUs...)
		into.simNs += t.simNs
		into.ratedaptNs += t.ratedaptNs
		into.bpNs += t.bpNs
		into.identNs += t.identNs
		into.bursts += t.bursts
		into.slots += t.slots
		into.joined += t.joined
		into.colliders += t.colliders
		into.accepted += t.accepted
	}
}
