// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed, checks every payload the decoder delivered
// against the message that was sent, and prints one JSON object as the
// last line of standard output: the end-to-end metrics with -trace 0,
// the per-layer metrics with -trace 1. See README.md for the workloads
// and what each metric means.
//
//	bash perfbench/run.sh --workload forklift-batch --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"slots_per_s", "1/s"},
	{"slot_rtt_us_p50", "us"},
	{"slot_rtt_us_p99", "us"},
	{"alloc_kb_per_slot", "KiB"},
	{"allocs_per_slot", "count"},
	{"peak_rss_mb", "MiB"},
	{"delivered_frac", "fraction"},
	{"air_s_per_1k_tags", "s"},
}

// perLayer is what the traced run reports. A layer a workload does not
// reach reads 0 there (README.md lists which layer runs where).
var perLayer = []metricDef{
	{"bp.decode_slot_us_p50", "us"},
	{"bp.decode_slot_us_p99", "us"},
	{"bp.descent_passes_per_slot", "count"},
	{"bp.restart_passes_per_slot", "count"},
	{"bp.bit_flips_per_slot", "count"},
	{"bp.restart_share", "fraction"},
	{"bp.joined_tags_mean", "count"},
	{"bp.colliders_mean", "count"},
	{"ratedapt.begin_slot_us_p50", "us"},
	{"ratedapt.begin_slot_us_p99", "us"},
	{"ratedapt.finish_slot_us_p50", "us"},
	{"ratedapt.finish_slot_us_p99", "us"},
	{"ratedapt.accepted_per_1k_slots", "count"},
	{"identify.reident_ms_per_burst", "ms"},
	{"scenario.load_ms", "ms"},
	{"scenario.resolve_roster_ms", "ms"},
	{"engine.open_us_p50", "us"},
	{"engine.serve_us_p50", "us"},
	{"engine.serve_us_p99", "us"},
	{"engine.slots_batched_frac", "fraction"},
	{"engine.sessions_shed", "count"},
	{"engine.busy_rejected", "count"},
	{"wire.bytes_up_per_slot", "B"},
	{"wire.bytes_down_per_slot", "B"},
	{"wire.encode_ns_per_frame", "ns"},
	{"wire.decode_ns_per_frame", "ns"},
	{"replay.client_gap_us_p50", "us"},
	{"replay.transport_us_p50", "us"},
	{"runtime.gc_cycles_per_1k_slots", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"quality.failed_frac", "fraction"},
	{"quality.slot_rtt_samples", "count"},
	{"trace.slots_per_s_untraced", "1/s"},
	{"trace.slots_per_s_traced", "1/s"},
	{"trace.overhead_share", "fraction"},
	{"trace.slot_busy_us_untraced", "us"},
	{"trace.sim_self_us_per_slot", "us"},
	{"trace.ratedapt_self_us_per_slot", "us"},
	{"trace.bp_self_us_per_slot", "us"},
	{"trace.identify_self_us_per_slot", "us"},
	{"trace.replay_self_us_per_slot", "us"},
	{"trace.transport_self_us_per_slot", "us"},
	{"trace.engine_self_us_per_slot", "us"},
	{"trace.attributed_share", "fraction"},
	{"trace.unattributed_share", "fraction"},
}

// runConfig is one invocation's command line.
type runConfig struct {
	workload string
	seed     uint64
	dur      time.Duration
	trace    bool
}

// report is what a workload hands back: the tallies behind the result
// line and every metric it measured (both lists; main prints one).
type report struct {
	problems  []string // correctness failures; any one makes correct false
	attempted int64    // tags offered
	failed    int64    // wrong payloads + tags of trials that errored
	metrics   map[string]float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.metrics[name] = v }

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*report, error){
	"forklift-batch":   func(c runConfig) (*report, error) { return runBatch(c, forklift) },
	"warehouse-batch":  func(c runConfig) (*report, error) { return runBatch(c, warehouse) },
	"dock-door-daemon": runDaemon,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// fingerprint identifies the machine a result came from; the steadiness
// tool refuses to compare results across fingerprints.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func main() {
	var cfg runConfig
	var seconds, trace int
	var seed int64
	flag.StringVar(&cfg.workload, "workload", "", "workload name: forklift-batch, warehouse-batch or dock-door-daemon")
	flag.Int64Var(&seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 10, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.Parse()
	cfg.seed = uint64(seed)
	cfg.dur = time.Duration(seconds) * time.Second
	cfg.trace = trace != 0
	run, ok := workloads[cfg.workload]
	if !ok || seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad -seconds %d\n", cfg.workload, seconds)
		os.Exit(2)
	}

	goroutines := runtime.NumGoroutine()
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	teardownOK := true
	if err := checkTeardown(goroutines); err != nil {
		rep.problem("teardown: %v", err)
		teardownOK = false
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := resultLine{
		Correct:   len(rep.problems) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing or not finite (%v)\n", d.name, v)
			os.Exit(1)
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: no tags offered")
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", p)
	}
	// Marshalling plain structs of strings and finite numbers cannot fail.
	fp, _ := json.Marshal(fingerprint{CPU: cpuModel(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()})
	line, _ := json.Marshal(out)
	fmt.Printf("fingerprint %s\n%s\n", fp, line)
	if !teardownOK {
		os.Exit(1)
	}
}

// checkTeardown fails when goroutines stay above the count the run
// started with (after a grace period for exiting ones) or when a child
// process is still alive.
func checkTeardown(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			return fmt.Errorf("%d goroutines left, started with %d:\n%s", runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
	if pids := childProcesses(); len(pids) > 0 {
		return fmt.Errorf("child processes still running: %v", pids)
	}
	return nil
}
