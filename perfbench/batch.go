package main

import (
	"embed"
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/prng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

//go:embed specs/*.json
var specFS embed.FS

// passSpec names a workload's spec file and the shape of its pass: the
// inputs made from the run's seed, repeated whole until the measured
// phase is over.
type passSpec struct {
	name         string // also the spec file under specs/
	seeds        int    // consecutive spec seeds per pass
	latencySpecs int    // specs the untraced slot-latency phase replays
}

var (
	forklift  = passSpec{name: "forklift-batch", seeds: 9, latencySpecs: 4}
	warehouse = passSpec{name: "warehouse-batch", seeds: 5, latencySpecs: 3}
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 15

// passSetup is one set-up of a pass: every spec parsed, validated and
// its roster resolved.
type passSetup struct {
	specs         []scenario.Spec
	rosters       []scenario.Roster
	load, resolve time.Duration
}

// specSeed is the i-th consecutive spec seed drawn from the run seed.
func specSeed(seed uint64, i int) uint64 { return prng.Mix2(seed, 0x5EED) + uint64(i) }

// setupPass parses the workload's spec once per pass seed, re-validates
// it under that seed, and resolves its roster.
func setupPass(name string, seed uint64, seeds int) (passSetup, error) {
	raw, err := specFS.ReadFile("specs/" + name + ".json")
	if err != nil {
		return passSetup{}, err
	}
	var ps passSetup
	for i := 0; i < seeds; i++ {
		t0 := time.Now()
		spec, err := scenario.Parse(raw)
		if err != nil {
			return passSetup{}, err
		}
		spec.Seed = specSeed(seed, i)
		if err := spec.Validate(); err != nil {
			return passSetup{}, err
		}
		t1 := time.Now()
		rost, err := spec.ResolveRoster()
		if err != nil {
			return passSetup{}, err
		}
		ps.load += t1.Sub(t0)
		ps.resolve += time.Since(t1)
		ps.specs = append(ps.specs, spec)
		ps.rosters = append(ps.rosters, rost)
	}
	return ps, nil
}

// repeatSetup sets a pass up setupReps times and reports the medians.
func repeatSetup(rep *report, name string, seed uint64, seeds int) (passSetup, error) {
	var ps passSetup
	var total, load, resolve []float64
	for r := 0; r < setupReps; r++ {
		var err error
		if ps, err = setupPass(name, seed, seeds); err != nil {
			return passSetup{}, err
		}
		total = append(total, (ps.load + ps.resolve).Seconds())
		load = append(load, ps.load.Seconds()*1e3)
		resolve = append(resolve, ps.resolve.Seconds()*1e3)
	}
	rep.set("setup_s", median(total))
	rep.set("scenario.load_ms", median(load))
	rep.set("scenario.resolve_roster_ms", median(resolve))
	return ps, nil
}

func slotsUsed(out *sim.ScenarioOutcome) int {
	n := 0
	for i := range out.Trials {
		n += out.Trials[i].SlotsUsed
	}
	return n
}

func runBatch(cfg runConfig, w passSpec) (*report, error) {
	rep := newReport()
	ps, err := repeatSetup(rep, w.name, cfg.seed, w.seeds)
	if err != nil {
		return nil, err
	}
	// Warm the simulator's worker pool and grow its pooled sessions to
	// the workload's shape before timing.
	if _, err := sim.Run(ps.specs[0]); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// Measured phase: whole passes of sim.Run until the time is up.
	type runOut struct {
		spec, pass int
		out        *sim.ScenarioOutcome
	}
	var outs []runOut
	snap0 := sim.BatchEngineSnapshot()
	endMem := memPhase()
	start := time.Now()
	var busy time.Duration
	// Per sim.Run call: slots per second, KiB and allocations per slot.
	// The medians across calls are reported, so one call that ran beside
	// a burst of outside load, or that refilled a pool the garbage
	// collector emptied, does not move the whole run.
	var rates, allocKB, allocs []float64
	var m0, m1 runtime.MemStats
	for pass := 0; pass == 0 || time.Since(start) < cfg.dur; pass++ {
		for i, spec := range ps.specs {
			runtime.ReadMemStats(&m0)
			t := time.Now()
			out, err := sim.Run(spec, sim.WithTrialDetail())
			d := time.Since(t)
			runtime.ReadMemStats(&m1)
			busy += d
			if err != nil {
				rep.problem("pass %d spec seed %d: %v", pass, spec.Seed, err)
				n := int64(spec.Trials * len(ps.rosters[i].Windows))
				rep.attempted += n
				rep.failed += n
				continue
			}
			n := float64(slotsUsed(out))
			md := memBetween(&m0, &m1)
			rates = append(rates, n/d.Seconds())
			allocKB = append(allocKB, float64(md.allocBytes)/1024/n)
			allocs = append(allocs, float64(md.mallocs)/n)
			outs = append(outs, runOut{spec: i, pass: pass, out: out})
		}
	}
	mem := endMem()
	snap1 := sim.BatchEngineSnapshot()

	// Tally: every verified payload against the message sent, and every
	// repeat pass against the first (the decode is deterministic).
	first := make([]*sim.ScenarioOutcome, len(ps.specs))
	var slots, delivered, wrong int64
	var airMs float64
	var cost struct{ descent, restart, flips uint64 }
	for _, r := range outs {
		spec, kTot := ps.specs[r.spec], len(ps.rosters[r.spec].Windows)
		if first[r.spec] == nil {
			first[r.spec] = r.out
		} else if !reflect.DeepEqual(first[r.spec].Trials, r.out.Trials) {
			rep.problem("pass %d spec seed %d decided differently from its first pass", r.pass, spec.Seed)
		}
		runWrong := int64(0)
		for trial := range r.out.Trials {
			bt := &r.out.Trials[trial]
			msgs := trialMessages(spec, kTot, trial)
			for i := 0; i < kTot; i++ {
				if !bt.Verified[i] {
					continue
				}
				if bt.Payloads[i].Equal(msgs[i]) {
					delivered++
				} else {
					runWrong++
				}
			}
			slots += int64(bt.SlotsUsed)
			airMs += bt.Millis
		}
		if got := int64(r.out.Scheme("buzz").WrongPayload); got != runWrong {
			rep.problem("spec seed %d: simulator counted %d wrong payloads, the benchmark %d", spec.Seed, got, runWrong)
		}
		wrong += runWrong
		rep.attempted += int64(spec.Trials * kTot)
		cost.descent += r.out.DecodeCost.DescentPasses
		cost.restart += r.out.DecodeCost.RestartPasses
		cost.flips += r.out.DecodeCost.Flips
	}
	rep.failed += wrong
	if slots == 0 || delivered == 0 {
		return nil, fmt.Errorf("%s: measured phase decoded %d slots and delivered %d payloads", w.name, slots, delivered)
	}
	fs := float64(slots)
	rep.set("slots_per_s", median(rates))
	rep.set("alloc_kb_per_slot", median(allocKB))
	rep.set("allocs_per_slot", median(allocs))
	rep.set("delivered_frac", float64(delivered)/float64(rep.attempted))
	rep.set("air_s_per_1k_tags", airMs/float64(delivered))
	rep.set("bp.descent_passes_per_slot", float64(cost.descent)/fs)
	rep.set("bp.restart_passes_per_slot", float64(cost.restart)/fs)
	rep.set("bp.bit_flips_per_slot", float64(cost.flips)/fs)
	rep.set("bp.restart_share", ratio(float64(cost.restart), float64(cost.descent+cost.restart)))
	rep.set("runtime.gc_cycles_per_1k_slots", float64(mem.gcCycles)*1e3/fs)
	rep.set("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6)
	rep.set("quality.failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.set("engine.slots_batched_frac", float64(snap1.SlotsBatched-snap0.SlotsBatched)/fs)
	rep.set("engine.sessions_shed", float64(snap1.SessionsShed-snap0.SessionsShed))
	rep.set("engine.busy_rejected", float64(snap1.BusyRejected-snap0.BusyRejected))
	for _, name := range []string{
		"engine.open_us_p50", "engine.serve_us_p50", "engine.serve_us_p99",
		"wire.bytes_up_per_slot", "wire.bytes_down_per_slot", "wire.encode_ns_per_frame", "wire.decode_ns_per_frame",
		"replay.client_gap_us_p50", "replay.transport_us_p50",
		"trace.replay_self_us_per_slot", "trace.transport_self_us_per_slot", "trace.engine_self_us_per_slot",
	} {
		rep.set(name, 0) // no daemon on this path
	}
	workers := min(runtime.GOMAXPROCS(0), ps.specs[0].Trials)
	untracedBusyUs := us(busy) * float64(workers) / fs
	rep.set("trace.slots_per_s_untraced", median(rates))
	rep.set("trace.slot_busy_us_untraced", untracedBusyUs)

	// Replica phase: the pass's trials again, through the benchmark's own
	// slot loop, each checked against sim.Run. Untraced, it takes the
	// whole-slot latency over the first latencySpecs specs on one worker,
	// so the two workers do not slow each other's slots. Traced, it
	// times every layer call over whole passes on sim.Run's worker count
	// for as long as the measured phase lasted.
	var tr laneTrace
	var replicaWall time.Duration
	var p50s, p99s, tracedRates []float64 // per replica call
	replica := func(eng *engine.SessionManager, i int) error {
		spec := ps.specs[i]
		t := time.Now()
		got, trs, err := replicaRun(eng, spec, ps.rosters[i], cfg.trace)
		d := time.Since(t)
		if err != nil {
			return fmt.Errorf("replica, spec seed %d: %w", spec.Seed, err)
		}
		replicaWall += d
		var call laneTrace
		mergeTraces(&call, trs)
		p50s = append(p50s, quantile(call.slotUs, 0.50))
		p99s = append(p99s, quantile(call.slotUs, 0.99))
		tracedRates = append(tracedRates, float64(call.slots)/d.Seconds())
		mergeTraces(&tr, []*laneTrace{&call})
		for trial := range got {
			if first[i] != nil && !got[trial].matches(&first[i].Trials[trial]) {
				rep.problem("replica trial %d of spec seed %d diverges from sim.Run", trial, spec.Seed)
			}
		}
		return nil
	}
	workersCfg := engine.Config{Workers: 1}
	if cfg.trace {
		workersCfg = engine.Config{}
	}
	eng := engine.New(workersCfg)
	defer eng.Close()
	if cfg.trace {
		start = time.Now()
		for pass := 0; pass == 0 || time.Since(start) < cfg.dur; pass++ {
			for i := range ps.specs {
				if err := replica(eng, i); err != nil {
					return nil, err
				}
			}
		}
	} else {
		for i := 0; i < min(w.latencySpecs, len(ps.specs)); i++ {
			if err := replica(eng, i); err != nil {
				return nil, err
			}
		}
	}
	rep.set("slot_rtt_us_p50", median(p50s))
	rep.set("slot_rtt_us_p99", median(p99s))
	rep.set("quality.slot_rtt_samples", float64(len(tr.slotUs)))
	rep.set("peak_rss_mb", peakRSSMB())

	ts := float64(tr.slots)
	rep.set("bp.decode_slot_us_p50", quantile(tr.decodeUs, 0.50))
	rep.set("bp.decode_slot_us_p99", quantile(tr.decodeUs, 0.99))
	rep.set("bp.joined_tags_mean", float64(tr.joined)/ts)
	rep.set("bp.colliders_mean", float64(tr.colliders)/ts)
	rep.set("ratedapt.begin_slot_us_p50", quantile(tr.beginUs, 0.50))
	rep.set("ratedapt.begin_slot_us_p99", quantile(tr.beginUs, 0.99))
	rep.set("ratedapt.finish_slot_us_p50", quantile(tr.finishUs, 0.50))
	rep.set("ratedapt.finish_slot_us_p99", quantile(tr.finishUs, 0.99))
	rep.set("ratedapt.accepted_per_1k_slots", float64(tr.accepted)*1e3/ts)
	rep.set("identify.reident_ms_per_burst", ratio(float64(tr.identNs)/1e6, float64(tr.bursts)))
	self := map[string]int64{"sim": tr.simNs, "ratedapt": tr.ratedaptNs, "bp": tr.bpNs, "identify": tr.identNs}
	var selfUs float64
	for layer, ns := range self {
		v := float64(ns) / 1e3 / ts
		rep.set("trace."+layer+"_self_us_per_slot", v)
		selfUs += v
	}
	tracedBusyUs := us(replicaWall) * float64(workers) / ts
	rep.set("trace.slots_per_s_traced", median(tracedRates))
	rep.set("trace.overhead_share", 1-median(tracedRates)/median(rates))
	rep.set("trace.attributed_share", selfUs/untracedBusyUs)
	rep.set("trace.unattributed_share", 1-selfUs/tracedBusyUs)
	return rep, nil
}
