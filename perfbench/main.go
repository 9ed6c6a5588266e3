// Command perfbench measures explink end to end and layer by layer on two
// workloads:
//
//	suite-quick  passes of the quick experiment suite, in process
//	serve-mixed  warm solve/eval requests queued behind cold simulations on an
//	             explinkd subprocess
//
// Build and run it from the repository root through run.sh, which builds this
// program and explinkd first:
//
//	bash perfbench/run.sh --workload suite-quick --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end metrics; with --trace 1 they are the per-layer metrics, taken
// from spans recorded around the benchmark's own calls into each layer and
// from the telemetry the program exposes. Every earlier line is a readable
// record of the run: host, seed, fingerprints and each metric with its unit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// heldOutSeed is the workload seed kept back for checking a claimed gain; it
// is never used while tuning a change.
const heldOutSeed = 9001

// setupReps is how many times a workload sets up per run; setup_s is the
// median of the repetitions. suite-quick, whose set-up is a whole suite pass,
// sets up suiteSetupReps times instead.
const (
	setupReps      = 9
	suiteSetupReps = 3
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	explinkd string // path of the explinkd binary (serve-mixed)
	tr       *tracer
}

// outcome is what a workload measured. Latencies are in milliseconds.
type outcome struct {
	setup     []float64 // seconds per set-up repetition
	lat       []float64 // op latency; on suite-quick, untraced passes only
	latTraced []float64 // suite-quick's traced passes (trace mode only)
	cold      []float64 // serve-mixed cold-lane latency; nil when every op is cold
	wall      float64   // seconds of the timed phase
	completed int       // ops completed in the timed phase
	attempted int
	failed    int  // errored, refused or failed an output check
	incorrect bool // some output check failed
	rssMB     float64
	steal     float64 // host.steal_share over the timed phase
	calib     float64 // host.calib_ms

	fingerprint []kv // exact-repeat counts, printed on every run
	layer       []kv // per-layer metrics (trace mode)
}

type kv struct {
	name  string
	value float64
	unit  string
}

// endToEnd lists the end-to-end metrics in output order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"max_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"cold_p50_ms", "ms"},
}

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them; a layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"exp.fig8_s", "s"}, {"exp.microarch_s", "s"}, {"exp.abbypass_s", "s"},
	{"exp.loadlat_s", "s"}, {"exp.rest_s", "s"}, {"exp.slot_idle_share", "ratio"},
	{"sim.runs", "count"}, {"sim.cycles", "count"}, {"sim.drain_cycle_share", "ratio"},
	{"sim.busy_s", "s"}, {"sim.ns_per_cycle", "ns"}, {"sim.flits_delivered", "count"},
	{"sim.ns_per_cycle_low", "ns"}, {"sim.ns_per_cycle_high", "ns"}, {"sim.build_ms", "ms"},
	{"core.solves", "count"}, {"core.store_hits", "count"}, {"core.store_hit_ratio", "ratio"},
	{"core.solve_busy_s", "s"}, {"core.evals", "count"}, {"core.store_hit_us", "us"},
	{"anneal.moves", "count"}, {"anneal.busy_s", "s"}, {"anneal.ns_per_move", "ns"},
	{"anneal.memo_hit_ratio", "ratio"}, {"anneal.accept_ratio", "ratio"},
	{"dnc.init_ms", "ms"},
	{"api.decode_us", "us"}, {"api.encode_us", "us"},
	{"serve.handler_ms.solve", "ms"}, {"serve.handler_ms.eval", "ms"}, {"serve.handler_ms.sim", "ms"},
	{"serve.queue_ms", "ms"}, {"serve.rejected", "count"}, {"serve.warm_overlap_share", "ratio"},
	{"go.allocs_per_op", "count"}, {"go.bytes_per_op", "B"}, {"go.gc_cycles", "count"},
	{"gen.late_p90_ms", "ms"}, {"obs.overhead_pct", "%"}, {"host.steal_share", "ratio"},
	{"host.calib_ms", "ms"},
}

var workloads = map[string]func(*config) (*outcome, error){
	"suite-quick": runSuiteQuick,
	"serve-mixed": runServeMixed,
}

func main() {
	var (
		workload = flag.String("workload", "", "suite-quick or serve-mixed")
		seed     = flag.Uint64("seed", 1, "workload seed; every input derives from it")
		seconds  = flag.Float64("seconds", 30, "length of the timed phase in seconds")
		trace    = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		explinkd = flag.String("explinkd", "", "explinkd binary (serve-mixed)")
		spansDir = flag.String("spans-dir", "", "write the traced run's spans here (empty = do not write)")
		commit   = flag.String("commit", "unknown", "commit of the measured source, for the run record")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q (want suite-quick or serve-mixed)", *workload)
	}
	if *seconds <= 0 || *trace < 0 || *trace > 1 {
		fatalf("need --seconds > 0 and --trace 0 or 1")
	}
	cfg := &config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, explinkd: *explinkd}
	if cfg.trace {
		cfg.tr = newTracer()
	}
	printRecord(cfg, *commit)

	calib := hostCalib()
	oc, err := run(cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	calib = append(calib, hostCalib()...)
	oc.calib = quantile(calib, 50)
	if cfg.tr != nil && *spansDir != "" {
		path := filepath.Join(*spansDir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := cfg.tr.write(path); err != nil {
			fatalf("writing spans: %v", err)
		}
		fmt.Printf("spans %d written to %s\n", cfg.tr.len(), path)
	}
	fmt.Printf("host.steal_share %.4f over the timed phase\n", oc.steal)
	fmt.Printf("host.calib_ms %.3f (fixed sort, before and after the run)\n", oc.calib)
	for _, f := range oc.fingerprint {
		fmt.Printf("fingerprint %s %s\n", f.name, strconv.FormatFloat(f.value, 'f', -1, 64))
	}
	if cfg.trace {
		emit(oc, layerMetrics(oc))
	} else {
		emit(oc, endToEndMetrics(oc))
	}
}

// printRecord prints the run record: what ran, where and on which inputs.
func printRecord(cfg *config, commit string) {
	rec := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "held_out_seed": heldOutSeed,
		"seconds": cfg.seconds, "trace": cfg.trace,
		"cpu": cpuModel(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit,
	}
	buf, _ := json.Marshal(rec) // a map of strings and numbers always marshals
	fmt.Printf("record %s\n", buf)
}

func endToEndMetrics(oc *outcome) []kv {
	okRatio := 0.0
	if oc.attempted > 0 {
		okRatio = float64(oc.attempted-oc.failed) / float64(oc.attempted)
	}
	cold := oc.cold
	if cold == nil {
		cold = oc.lat // every suite-quick pass starts on an empty store
	}
	vals := map[string]float64{
		"setup_s":     quantile(oc.setup, 50),
		"p50_ms":      quantile(oc.lat, 50),
		"tail_ms":     quantile(oc.lat, 90),
		"ops_per_s":   float64(oc.completed) / oc.wall,
		"max_rss_mb":  oc.rssMB,
		"ok_ratio":    okRatio,
		"cold_p50_ms": quantile(cold, 50),
	}
	fmt.Printf("samples ops=%d cold=%d setup=%d (tail_ms is p90 over ops)\n", len(oc.lat), len(cold), len(oc.setup))
	out := make([]kv, 0, len(endToEnd))
	for _, m := range endToEnd {
		out = append(out, kv{m.name, vals[m.name], m.unit})
	}
	return out
}

func layerMetrics(oc *outcome) []kv {
	got := map[string]float64{}
	for _, l := range oc.layer {
		got[l.name] = l.value
	}
	if len(oc.lat) > 0 && len(oc.latTraced) > 0 {
		base := quantile(oc.lat, 50)
		got["obs.overhead_pct"] = 100 * (quantile(oc.latTraced, 50) - base) / base
		fmt.Printf("samples untraced=%d traced=%d\n", len(oc.lat), len(oc.latTraced))
	} else {
		fmt.Printf("samples ops=%d, every op traced\n", len(oc.lat))
	}
	got["host.steal_share"] = oc.steal
	got["host.calib_ms"] = oc.calib
	out := make([]kv, 0, len(perLayer))
	for _, m := range perLayer {
		out = append(out, kv{m.name, got[m.name], m.unit})
	}
	return out
}

// emit prints every metric on its own line, then the result object as the
// last line of standard output.
func emit(oc *outcome, metrics []kv) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{!oc.incorrect && oc.attempted > 0, oc.attempted, oc.failed, map[string]value{}}
	for _, m := range metrics {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Printf("metric %-26s %14.6g %s\n", m.name, v, m.unit)
		res.Metrics[m.name] = value{v, m.unit}
	}
	fmt.Printf("ops attempted=%d failed=%d completed=%d wall_s=%.3f\n", oc.attempted, oc.failed, oc.completed, oc.wall)
	buf, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(buf))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// quantile returns the nearest-rank p-th percentile (rank ceil(p*N/100)) of
// xs, or 0 for an empty sample.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s)) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0 (a layer the workload did not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// splitmix64 derives a stream of well-mixed seeds from one workload seed.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seeds returns n nonzero seeds derived from seed under a label, so the
// different input streams of one workload never share values.
func seeds(seed uint64, label string, n int) []uint64 {
	x := seed
	for _, c := range label {
		x = x*31 + uint64(c)
	}
	out := make([]uint64, n)
	for i := range out {
		for out[i] == 0 {
			out[i] = splitmix64(&x)
		}
	}
	return out
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc.
func peakRSSMB(pid string) float64 {
	buf, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// hostCalib times a fixed task, sorting the same 2^19 pseudo-random 64-bit
// keys, three times. It depends on no repository code, so on an unchanged
// host with the same Go version it reads the same; a shift between runs shows
// the host itself ran slower or faster (a busy sibling hyperthread, shared
// cache or memory bandwidth, clock frequency), which host.steal_share does
// not see.
func hostCalib() []float64 {
	keys := make([]uint64, 1<<19)
	reps := make([]float64, 3)
	for r := range reps {
		x := uint64(88172645463325252)
		for i := range keys {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			keys[i] = x
		}
		t0 := time.Now()
		slices.Sort(keys)
		reps[r] = ms(time.Since(t0))
	}
	return reps
}

// cpuTimes reads the aggregate steal and total jiffies from /proc/stat.
type cpuTimes struct{ steal, total float64 }

func readCPUTimes() cpuTimes {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	var t cpuTimes
	for i, f := range fields[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is inside user
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of host CPU time stolen by other guests between
// two /proc/stat readings.
func stealShare(a, b cpuTimes) float64 { return ratio(b.steal-a.steal, b.total-a.total) }
