package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"

	"repro/internal/bits"
	"repro/internal/engine"
	"repro/internal/engine/replay"
	"repro/internal/engine/wire"
	"repro/internal/epc"
	"repro/internal/scenario"
	"repro/internal/sim"
)

const (
	// readers is the number of reader connections, one closed loop each.
	readers = 2
	// daemonSetupReps is how many times a run starts and stops the
	// daemon; setup_s is the median.
	daemonSetupReps = 21
	// conformanceTrials is the handful of trials checked against sim.Run.
	conformanceTrials = 8
	// shadowTrials is how many trials the traced run decodes in process
	// to time the decode layers the daemon runs inside its shards.
	shadowTrials = 256
)

// dockDoor's pass is 100 consecutive spec seeds (each its own arrival
// schedule) of 10 trials each.
var dockDoor = passSpec{name: "dock-door-daemon", seeds: 100}

// daemon is an in-process buzzd: a session manager and wire server on a
// loopback listener, with the reader connections dialled to it.
type daemon struct {
	m        *engine.SessionManager
	srv      *engine.Server
	ln       *tracedListener // nil when untraced
	addr     string
	serveErr chan error
	conns    []*clientConn
	traced   bool
	stopped  bool
}

// startDaemon brings the daemon up, dials the readers and warms every
// connection with one trial each of spec under a fixed seed, so the
// warm-up is the same work whatever the run's seed.
func startDaemon(spec scenario.Spec, traced bool) (*daemon, error) {
	spec.Seed = specSeed(0, 0)
	m := engine.New(engine.Config{})
	d := &daemon{m: m, srv: engine.NewServer(m, engine.ServerConfig{}), serveErr: make(chan error, 1), traced: traced}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, err
	}
	d.addr = ln.Addr().String()
	var serving net.Listener = ln
	if traced {
		d.ln = &tracedListener{Listener: ln, logs: map[string]*serverLog{}}
		serving = d.ln
	}
	go func() { d.serveErr <- d.srv.Serve(serving) }()
	for i := 0; i < readers; i++ {
		if err := d.dial(); err != nil {
			return nil, errors.Join(err, d.stop())
		}
		if _, err := replay.RunTrial(d.conns[i], spec, spec.Trials-1-i); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up: %w", err), d.stop())
		}
		d.conns[i] = newClientConn(d.conns[i].nc, traced) // drop warm-up samples
	}
	if d.ln != nil {
		d.ln.reset()
	}
	return d, nil
}

func (d *daemon) dial() error {
	nc, err := net.Dial("tcp", d.addr)
	if err != nil {
		return err
	}
	d.conns = append(d.conns, newClientConn(nc, d.traced))
	return nil
}

// stop hangs the readers up, shuts the server down (draining its
// sessions), closes the manager, and checks that nothing is left:
// no live session and no pooled resources still out.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	for _, c := range d.conns {
		c.nc.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.m.Close()
	if serr := <-d.serveErr; serr != nil {
		err = errors.Join(err, serr)
	}
	snap := d.m.Snapshot()
	if snap.ActiveSessions != 0 || snap.ResourcesInFlight != 0 {
		err = errors.Join(err, fmt.Errorf("daemon stopped with %d live sessions and %d pooled resources in flight", snap.ActiveSessions, snap.ResourcesInFlight))
	}
	return err
}

// loopResult is one measured phase of the closed-loop readers.
type loopResult struct {
	wall                  time.Duration
	doneAt                []time.Duration // each trial's completion, from the phase start
	doneSlots             []float64       // and its slot count
	offered, delivered    int64
	wrong, errored, slots int64
	airBits               float64
	digests               map[int][]uint64            // pass position → digest per pass
	firstTrials           map[int]*replay.TrialResult // first spec's first trials
	errs                  []error
	mem                   memDelta
	snap                  snapshotDelta
}

// closedLoop runs the readers until the measured phase is over. Each
// reader sends a slot only after the previous slot's decisions arrived.
// Readers pull global trial indices; index t replays position
// t mod (specs × Trials) of the pass — spec p / Trials, trial p mod
// Trials — and the phase ends at a whole number of passes.
func (d *daemon) closedLoop(ps passSetup, dur time.Duration) (*loopResult, error) {
	crc, err := ps.specs[0].CRCKind()
	if err != nil {
		return nil, err
	}
	frameLen := float64(ps.specs[0].Workload.MessageBits + crc.Width())
	n := ps.specs[0].Trials
	passLen := n * len(ps.specs)
	res := &loopResult{digests: map[int][]uint64{}, firstTrials: map[int]*replay.TrialResult{}}
	var mu sync.Mutex
	next, done := 0, false
	begin := time.Now()
	pull := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if !done && next > 0 && next%passLen == 0 && time.Since(begin) >= dur {
			done = true
		}
		if done {
			return 0, false
		}
		next++
		return (next - 1) % passLen, true
	}
	for _, c := range d.conns {
		c.begin, c.w = begin, dur/windows
	}
	var wg sync.WaitGroup
	for ci := range d.conns {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for {
				p, ok := pull()
				if !ok {
					return
				}
				spec, trial := ps.specs[p/n], p%n
				kTot := int64(len(ps.rosters[p/n].Windows))
				tr, err := replay.RunTrial(d.conns[ci], spec, trial)
				mu.Lock()
				res.offered += kTot
				if err != nil {
					res.errored += kTot
					res.errs = append(res.errs, fmt.Errorf("spec seed %d trial %d: %w", spec.Seed, trial, err))
					mu.Unlock()
					return // the connection's stream state is unknown
				}
				res.slots += int64(tr.SlotsUsed)
				res.doneAt = append(res.doneAt, time.Since(begin))
				res.doneSlots = append(res.doneSlots, float64(tr.SlotsUsed))
				res.airBits += float64(tr.SlotsUsed) * frameLen
				for i, ok := range tr.Verified {
					if !ok {
						continue
					}
					if bits.PayloadOf(tr.Frames[i], crc).Equal(tr.Messages[i]) {
						res.delivered++
					} else {
						res.wrong++
					}
				}
				res.digests[p] = append(res.digests[p], digest(tr))
				if p < conformanceTrials {
					res.firstTrials[p] = tr
				}
				mu.Unlock()
			}
		}(ci)
	}
	wg.Wait()
	res.wall = time.Since(begin)
	return res, nil
}

// digest hashes a trial's decisions (FNV-1a) so repeat passes can be
// checked against the first without keeping every result.
func digest(tr *replay.TrialResult) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for i, v := range tr.Verified {
		mix(b2u(v))
		mix(b2u(tr.Retired[i]))
		for _, bit := range tr.Frames[i] {
			mix(b2u(bit))
		}
	}
	for _, v := range []int{tr.SlotsUsed, tr.RowsRetired} {
		for s := 0; s < 64; s += 8 {
			mix(byte(uint64(v) >> s))
		}
	}
	return h
}

func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func runDaemon(cfg runConfig) (*report, error) {
	rep := newReport()
	var total, load, resolve []float64
	var ps passSetup
	var d *daemon
	for r := 0; r < daemonSetupReps; r++ {
		t0 := time.Now()
		var err error
		if ps, err = setupPass(dockDoor.name, cfg.seed, dockDoor.seeds); err != nil {
			return nil, err
		}
		if d, err = startDaemon(ps.specs[0], false); err != nil {
			return nil, err
		}
		total = append(total, time.Since(t0).Seconds())
		load = append(load, ps.load.Seconds()*1e3)
		resolve = append(resolve, ps.resolve.Seconds()*1e3)
		if r < daemonSetupReps-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	rep.set("setup_s", median(total))
	rep.set("scenario.load_ms", median(load))
	rep.set("scenario.resolve_roster_ms", median(resolve))

	untraced, err := d.measure(ps, cfg.dur)
	if serr := d.stop(); serr != nil {
		rep.problem("teardown: %v", serr)
	}
	if err != nil {
		return nil, err
	}
	tally(rep, untraced)
	conformance(rep, ps.specs[0], untraced)

	fs := float64(untraced.slots)
	var p50s, p99s []float64
	samples := 0
	for k := 0; k < windows; k++ {
		var rtt []float64
		for _, c := range d.conns {
			rtt = append(rtt, c.rttUs[k]...)
		}
		samples += len(rtt)
		p50s = append(p50s, quantile(rtt, 0.50))
		p99s = append(p99s, quantile(rtt, 0.99))
	}
	rate := windowRate(untraced.doneAt, untraced.doneSlots, cfg.dur)
	rep.set("slots_per_s", rate)
	rep.set("slot_rtt_us_p50", median(p50s))
	rep.set("slot_rtt_us_p99", median(p99s))
	rep.set("quality.slot_rtt_samples", float64(samples))
	untracedBusyUs := us(untraced.wall) * readers / fs
	rep.set("trace.slots_per_s_untraced", rate)
	rep.set("trace.slot_busy_us_untraced", untracedBusyUs)

	if cfg.trace {
		if err := tracedDaemon(rep, ps, cfg.dur, untracedBusyUs, rate); err != nil {
			return nil, err
		}
	}
	rep.set("peak_rss_mb", peakRSSMB())
	return rep, nil
}

// snapshotDelta is the daemon counters' movement over a phase.
type snapshotDelta struct {
	shed, busy, panics, batched, ingested int64
	descent, restart, flips               int64
}

// measure runs the closed loop on a started daemon and brackets it
// with the runtime and engine counters.
func (d *daemon) measure(ps passSetup, dur time.Duration) (*loopResult, error) {
	s0 := d.m.Snapshot()
	endMem := memPhase()
	lr, err := d.closedLoop(ps, dur)
	mem := endMem()
	s1 := d.m.Snapshot()
	if err != nil {
		return nil, err
	}
	lr.mem = mem
	lr.snap = snapshotDelta{
		shed: s1.SessionsShed - s0.SessionsShed, busy: s1.BusyRejected - s0.BusyRejected,
		panics: s1.PanicsRecovered - s0.PanicsRecovered, batched: s1.SlotsBatched - s0.SlotsBatched,
		ingested: s1.SlotsIngested - s0.SlotsIngested,
		descent:  s1.DescentPasses - s0.DescentPasses, restart: s1.RestartPasses - s0.RestartPasses, flips: s1.BitFlips - s0.BitFlips,
	}
	return lr, nil
}

// tally turns the untraced phase into the result line's counts and the
// quality, allocation and engine-counter metrics.
func tally(rep *report, lr *loopResult) {
	sd := lr.snap
	rep.attempted += lr.offered
	rep.failed += lr.wrong + lr.errored
	for _, err := range lr.errs {
		rep.problem("%v", err)
	}
	if sd.shed+sd.busy+sd.panics > 0 {
		rep.problem("daemon shed %d sessions, rejected %d as busy, recovered %d panics", sd.shed, sd.busy, sd.panics)
	}
	for trial, ds := range lr.digests {
		for p, h := range ds[1:] {
			if h != ds[0] {
				rep.problem("trial %d decided differently on pass %d than on its first", trial, p+1)
			}
		}
	}
	fs := float64(lr.slots)
	if sd.ingested != lr.slots {
		rep.problem("daemon ingested %d slots, readers sent %d", sd.ingested, lr.slots)
	}
	mem := lr.mem
	rep.set("alloc_kb_per_slot", float64(mem.allocBytes)/1024/fs)
	rep.set("allocs_per_slot", float64(mem.mallocs)/fs)
	rep.set("delivered_frac", float64(lr.delivered)/float64(lr.offered))
	rep.set("air_s_per_1k_tags", epc.UplinkMicros(lr.airBits)/1e3/float64(lr.delivered))
	rep.set("quality.failed_frac", float64(rep.failed)/float64(rep.attempted))
	rep.set("runtime.gc_cycles_per_1k_slots", float64(mem.gcCycles)*1e3/fs)
	rep.set("runtime.gc_pause_ms", float64(mem.pauseNs)/1e6)
	rep.set("bp.descent_passes_per_slot", float64(sd.descent)/fs)
	rep.set("bp.restart_passes_per_slot", float64(sd.restart)/fs)
	rep.set("bp.bit_flips_per_slot", float64(sd.flips)/fs)
	rep.set("bp.restart_share", ratio(float64(sd.restart), float64(sd.descent+sd.restart)))
	rep.set("engine.slots_batched_frac", float64(sd.batched)/fs)
	rep.set("engine.sessions_shed", float64(sd.shed))
	rep.set("engine.busy_rejected", float64(sd.busy))
}

// conformance checks the first trials the daemon decided against
// sim.Run of the same spec: the loopback conformance property says the
// decisions are byte-identical.
func conformance(rep *report, spec scenario.Spec, lr *loopResult) {
	s := spec
	s.Trials = conformanceTrials
	batch, err := sim.Run(s, sim.WithTrialDetail())
	if err != nil {
		rep.problem("conformance sim.Run: %v", err)
		return
	}
	crc, _ := spec.CRCKind()
	for trial := 0; trial < conformanceTrials; trial++ {
		st, bt := lr.firstTrials[trial], &batch.Trials[trial]
		if st == nil {
			rep.problem("conformance: trial %d was not replayed", trial)
			continue
		}
		if !reflect.DeepEqual(st.Verified, bt.Verified) || !reflect.DeepEqual(st.Payloads(crc), bt.Payloads) ||
			!reflect.DeepEqual(st.Retired, bt.Retired) || st.SlotsUsed != bt.SlotsUsed || st.RowsRetired != bt.RowsRetired {
			rep.problem("conformance: trial %d over loopback differs from sim.Run", trial)
		}
	}
}

// tracedDaemon runs the measured phase again on a daemon whose server
// connections log every frame, pairs each reader's requests with the
// server's view of them, re-runs the wire codec over the captured
// frames, and decodes a shadow batch of trials in process for the
// decode-layer spans.
func tracedDaemon(rep *report, ps passSetup, dur time.Duration, untracedBusyUs, untracedRate float64) error {
	d, err := startDaemon(ps.specs[0], true)
	if err != nil {
		return err
	}
	lr, err := d.measure(ps, dur)
	if serr := d.stop(); serr != nil {
		rep.problem("traced teardown: %v", serr)
	}
	if err != nil {
		return err
	}
	for _, e := range lr.errs {
		rep.problem("traced phase: %v", e)
	}
	var serve, open, gap, transport []float64
	var engineNs, replayNs, transportNs int64
	var up, down int64
	var frames [][]byte
	for _, c := range d.conns {
		up += c.bytesUp
		down += c.bytesDn
		frames = append(frames, c.frames...)
		sl := d.ln.logFor(c.nc.LocalAddr().String())
		if sl == nil {
			rep.problem("traced phase: no server log for reader %s", c.nc.LocalAddr())
			continue
		}
		sl.mu.Lock()
		xs, ok := pairExchanges(c.events, sl.events)
		sl.mu.Unlock()
		if !ok {
			rep.problem("traced phase: reader %s and server logs do not pair", c.nc.LocalAddr())
			continue
		}
		for k, x := range xs {
			sv := x.answered.Sub(x.served)
			rt := x.replied.Sub(x.sent)
			engineNs += sv.Nanoseconds()
			transportNs += (rt - sv).Nanoseconds()
			if k > 0 {
				g := x.sent.Sub(xs[k-1].replied)
				replayNs += g.Nanoseconds()
				if x.typ == wire.TypeSlot && xs[k-1].typ == wire.TypeSlot {
					gap = append(gap, us(g))
				}
			}
			switch x.typ {
			case wire.TypeSlot:
				serve = append(serve, us(sv))
				transport = append(transport, us(rt-sv))
			case wire.TypeOpen:
				open = append(open, us(sv))
			}
		}
	}
	ts := float64(lr.slots)
	rep.set("engine.open_us_p50", quantile(open, 0.50))
	rep.set("engine.serve_us_p50", quantile(serve, 0.50))
	rep.set("engine.serve_us_p99", quantile(serve, 0.99))
	rep.set("replay.client_gap_us_p50", quantile(gap, 0.50))
	rep.set("replay.transport_us_p50", quantile(transport, 0.50))
	rep.set("wire.bytes_up_per_slot", float64(up)/ts)
	rep.set("wire.bytes_down_per_slot", float64(down)/ts)
	enc, dec, err := codecRerun(frames)
	if err != nil {
		rep.problem("wire re-run: %v", err)
	}
	rep.set("wire.encode_ns_per_frame", enc)
	rep.set("wire.decode_ns_per_frame", dec)

	self := map[string]int64{"engine": engineNs, "replay": replayNs, "transport": transportNs}
	var selfUs float64
	for layer, ns := range self {
		v := float64(ns) / 1e3 / ts
		rep.set("trace."+layer+"_self_us_per_slot", v)
		selfUs += v
	}
	tracedRate := windowRate(lr.doneAt, lr.doneSlots, dur)
	rep.set("trace.slots_per_s_traced", tracedRate)
	rep.set("trace.overhead_share", 1-tracedRate/untracedRate)
	rep.set("trace.attributed_share", selfUs/untracedBusyUs)
	rep.set("trace.unattributed_share", 1-selfUs/(us(lr.wall)*readers/ts))

	// The daemon decodes inside its shards, out of the benchmark's
	// reach; the same trials decoded in process give the decode-layer
	// spans (checked against sim.Run like the batch replica).
	return shadowDecode(rep, ps)
}

// codecRerun decodes every captured frame with wire.ReadFrame and
// re-encodes it with wire.Append, checking the bytes round-trip, and
// returns the median over five passes of ns per frame.
func codecRerun(frames [][]byte) (encNs, decNs float64, err error) {
	if len(frames) == 0 {
		return 0, 0, errors.New("no frames captured")
	}
	decoded := make([]wire.Frame, len(frames))
	var encs, decs []float64
	var buf []byte
	for pass := 0; pass < 5; pass++ {
		t := time.Now()
		for i, b := range frames {
			if decoded[i], err = wire.ReadFrame(bytes.NewReader(b)); err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t).Nanoseconds())/float64(len(frames)))
		t = time.Now()
		for _, f := range decoded {
			if buf, err = wire.Append(buf[:0], f); err != nil {
				return 0, 0, err
			}
		}
		encs = append(encs, float64(time.Since(t).Nanoseconds())/float64(len(frames)))
	}
	for i, f := range decoded {
		if buf, err = wire.Append(buf[:0], f); err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(buf, frames[i]) {
			return 0, 0, fmt.Errorf("frame %d does not re-encode to the bytes sent", i)
		}
	}
	return median(encs), median(decs), nil
}

// shadowDecode runs shadowTrials trials of the pass through the replica
// with every span on, spec by spec, and checks them against sim.Run.
func shadowDecode(rep *report, ps passSetup) error {
	eng := engine.New(engine.Config{})
	defer eng.Close()
	var trs []*laneTrace
	for i := 0; i < len(ps.specs) && len(trs) < shadowTrials; i++ {
		spec := ps.specs[i]
		batch, err := sim.Run(spec, sim.WithTrialDetail())
		if err != nil {
			return fmt.Errorf("shadow sim.Run: %w", err)
		}
		got, t, err := replicaRun(eng, spec, ps.rosters[i], true)
		if err != nil {
			return fmt.Errorf("shadow replica: %w", err)
		}
		for trial := range got {
			if !got[trial].matches(&batch.Trials[trial]) {
				rep.problem("shadow replica trial %d of spec seed %d diverges from sim.Run", trial, spec.Seed)
			}
		}
		trs = append(trs, t...)
	}
	var tr laneTrace
	mergeTraces(&tr, trs)
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
	// The daemon's own decode is inside engine self time.
	for _, layer := range []string{"sim", "ratedapt", "bp", "identify"} {
		rep.set("trace."+layer+"_self_us_per_slot", 0)
	}
	return nil
}
