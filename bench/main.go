// Command bench is schemaflow's one benchmark: seeded workloads that each
// put a different layer in the hot seat (BENCHMARK.json lists four;
// classify-sharded runs by name), end-to-end metrics gated by the bounds in
// BENCHMARK.json, and a traced run that attributes time to layers from
// outside, by timing calls into their public functions.
//
//	go run ./bench -workload classify-wide -seed 1 -seconds 20 -trace 0
//	go run ./bench -all -out a.jsonl       # every workload, results appended
//	go run ./bench -compare a.jsonl b.jsonl
//
// A run builds cmd/payg-server from the checkout, generates every input
// from the seed, drives the real binary over loopback HTTP (payg.Build
// in-process for the offline workload), checks every response, prints each
// metric by name with its unit, and ends with one JSON line:
//
//	{"correct":true,"attempted":1000,"failed":0,"metrics":{"p50_ms":{"value":1.2,"unit":"ms"},…}}
//
// With -trace 0 the JSON carries BENCHMARK.json's end_to_end metrics; with
// -trace 1 the run sets up once, repeats the timed phase, then calls each
// layer in-process on the same inputs and the JSON carries the per_layer
// metrics. See README.md beside this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report collects what a run measured, in the order it was measured.
type report struct {
	order     []string
	values    map[string]metricValue
	samples   map[string]int // sample count behind a percentile, printed beside it
	notes     []string
	attempted int
	fails     failures
	incorrect []string // reasons the run's outputs were judged wrong
}

func newReport() *report {
	return &report{values: map[string]metricValue{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.order = append(r.order, name)
	}
	r.values[name] = metricValue{Value: v, Unit: unit}
}

// setN is set for a statistic of n samples.
func (r *report) setN(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.samples[name] = n
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// wrong records that the system's output failed a whole-run check (as
// opposed to one op failing, which goes to fails).
func (r *report) wrong(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// finish turns a report into the contract's result: exactly the metrics
// BENCHMARK.json lists for this kind of run. A missing end-to-end metric is
// a harness bug; a per-layer metric the workload never ran reads 0, which
// is what "this layer is not on this workload's path" looks like.
func (r *report) finish(sp *spec, trace bool) (*result, error) {
	want := sp.EndToEnd
	if trace {
		want = sp.PerLayer
	}
	res := &result{
		Correct:   len(r.incorrect) == 0 && r.fails.n == 0,
		Attempted: r.attempted,
		Failed:    r.fails.n,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := r.values[m.Name]
		switch {
		case ok && v.Unit != m.Unit:
			return nil, fmt.Errorf("bench: metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		case !ok && !trace:
			return nil, fmt.Errorf("bench: end-to-end metric %s was not measured", m.Name)
		case !ok:
			v = metricValue{Value: 0, Unit: m.Unit}
		}
		res.Metrics[m.Name] = v
	}
	return res, nil
}

// print writes the human-readable part: every number measured, by name,
// with its unit and — for percentiles — its sample count.
func (r *report) print(w io.Writer, workload string, seed int64) {
	fmt.Fprintf(w, "# %s seed=%d\n", workload, seed)
	for _, name := range r.order {
		v := r.values[name]
		if n, ok := r.samples[name]; ok {
			fmt.Fprintf(w, "%-32s %14.4f %-6s n=%d\n", name, v.Value, v.Unit, n)
		} else {
			fmt.Fprintf(w, "%-32s %14.4f %s\n", name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "%-32s %14d\n%-32s %14d\n", "ops", r.attempted, "failed", r.fails.n)
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.fails.n) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-32s %14.6f\n", "error_rate", errRate)
	for _, n := range r.notes {
		fmt.Fprintln(w, "# "+n)
	}
	for _, f := range r.fails.reasons {
		fmt.Fprintln(w, "# failed op: "+f)
	}
	for _, reason := range r.incorrect {
		fmt.Fprintln(w, "# INCORRECT: "+reason)
	}
}

// env is what one run of one workload works with.
type env struct {
	name    string // workload
	root    string
	bin     string // built payg-server
	sup     *supervisor
	host    *hostProbe
	p       params
	seed    int64
	seconds float64
	trace   bool
	rep     *report
}

var workloads = map[string]func(*env) error{
	"build-blocked":    runBuildBlocked,
	"classify-wide":    func(e *env) error { return runClassify(e, wideStream, singleNode) },
	"classify-fuzzy":   func(e *env) error { return runClassify(e, fuzzyStream, singleNode) },
	"classify-sharded": func(e *env) error { return runClassify(e, wideStream, twoShards) },
	"mixed-ingest":     runMixedIngest,
}

// outRecord is one line of an -out file, the input of -compare.
type outRecord struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Result   *result `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its inputs and outputs as parameters, so the smoke test
// can drive the whole harness in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed     = fs.Int64("seed", 1, "seed every input is generated from")
		seconds  = fs.Float64("seconds", 0, "length of the timed phase (default: BENCHMARK.json run_seconds)")
		trace    = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics, 0 = end-to-end metrics")
		all      = fs.Bool("all", false, "run every workload in BENCHMARK.json order")
		smoke    = fs.Bool("smoke", false, "tiny corpora and op counts (what go test runs); numbers mean nothing")
		out      = fs.String("out", "", "append each result as a JSON line to this file")
		compare  = fs.Bool("compare", false, "compare two -out files given as arguments by BENCHMARK.json's bounds")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two result files")
			return 2
		}
		worse, err := compareFiles(stdout, sp, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 3
		}
		return 0
	}

	var names []string
	switch {
	case *all:
		for _, w := range sp.Workloads {
			names = append(names, w.Name)
		}
	case workloads[*workload] != nil:
		names = []string{*workload}
	default:
		fmt.Fprintf(stderr, "bench: unknown workload %q (want one of %v, or -all)\n", *workload, sortedKeys(workloads))
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	p := fullParams
	if *smoke {
		p = smokeParams
	}

	sup, err := newSupervisor(filepath.Join(root, "bench", "out"))
	if err != nil {
		return fail(err)
	}
	// Children and scratch files go on every exit path: normal return and
	// error (defer), panic (defer runs before the crash), and signals.
	defer sup.close()
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	quit := make(chan struct{})
	go func() {
		select {
		case <-sigs:
			sup.close()
			os.Exit(130)
		case <-quit:
		}
	}()
	defer func() {
		signal.Stop(sigs)
		close(quit)
	}()

	// One `go build` per invocation, into a stable path: when the checkout
	// has not changed since the last run the toolchain finds the binary up
	// to date and does not even relink it.
	bin := filepath.Join(root, "bench", "out", "payg-server")
	if err := buildServer(root, bin); err != nil {
		return fail(err)
	}
	host, err := startHostProbe()
	if err != nil {
		return fail(err)
	}
	defer host.close()
	for _, name := range names {
		e := &env{name: name, root: root, bin: bin, sup: sup, host: host, p: p, seed: *seed, seconds: *seconds, trace: *trace != 0, rep: newReport()}
		began := time.Now()
		if err := workloads[name](e); err != nil {
			return fail(fmt.Errorf("bench: %s: %w", name, err))
		}
		e.rep.set("host.probe_us", host.medianUs(began, time.Now()), "us")
		res, err := e.rep.finish(sp, e.trace)
		if err != nil {
			return fail(err)
		}
		e.rep.print(stdout, name, *seed)
		line, err := json.Marshal(res)
		if err != nil {
			return fail(err)
		}
		if *out != "" {
			if err := appendRecord(*out, outRecord{Workload: name, Seed: *seed, Trace: e.trace, Result: res}); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintln(stdout, string(line))
	}
	return 0
}

func appendRecord(path string, rec outRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
