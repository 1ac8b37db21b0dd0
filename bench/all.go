package main

import (
	"bufio"
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// baselineJSON is the committed record of this benchmark on its reference
// machine: two sets of runs per workload, their medians and quartile
// spreads, and the trace digest of every seed run. The bounds in
// BENCHMARK.json were derived from it.
//
//go:embed baseline.json
var baselineJSON []byte

type baselineFile struct {
	Host       map[string]string                       `json:"host"`
	RunSeconds float64                                 `json:"run_seconds"`
	Seeds      []int64                                 `json:"seeds"`
	Digests    map[string]map[string]string            `json:"trace_digests"`
	Workloads  map[string]map[string]baselineMetricRec `json:"workloads"`
}

type baselineMetricRec struct {
	Unit  string        `json:"unit"`
	Bound float64       `json:"bound"`
	Sets  []baselineSet `json:"sets"`
}

type baselineSet struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

// pinnedDigest returns the trace digest baseline.json records for a
// workload and seed.
func pinnedDigest(workload string, seed int64) (string, bool) {
	var b baselineFile
	if json.Unmarshal(baselineJSON, &b) != nil {
		return "", false
	}
	d, ok := b.Digests[workload][strconv.FormatInt(seed, 10)]
	return d, ok
}

// childResult is what one workload process printed.
type childResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
	digest string
	line   string
	code   int
}

// runChild runs one workload in a process of its own — the only way its
// memory and allocation figures mean anything — and parses what it printed.
func runChild(opt options, workload string, seed int64, trace bool, echo bool) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace-dir", opt.traceDir, "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
	}
	if opt.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	res := &childResult{}
	if err != nil {
		exit, ok := err.(*exec.ExitError)
		if !ok {
			return nil, err
		}
		res.code = exit.ExitCode()
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if echo {
			fmt.Println(line)
		}
		if rest, ok := strings.CutPrefix(line, "trace_digest "); ok {
			res.digest, _, _ = strings.Cut(rest, " ")
		}
		res.line = line
	}
	if err := json.Unmarshal([]byte(res.line), res); err != nil {
		return nil, fmt.Errorf("%s printed no result line (exit %d)", workload, res.code)
	}
	return res, nil
}

// runAll runs every workload untraced, then traced, one process each. The
// two passes share binary and seed, so their trace digests must agree: a
// difference means tracing changed what the loop computed.
func runAll(opt options) int {
	code := 0
	for _, w := range workloads {
		var digests [2]string
		for pass, trace := range []bool{false, true} {
			res, err := runChild(opt, w.name, opt.seed, trace, !opt.jsonOnly)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			if opt.jsonOnly {
				fmt.Printf("{\"workload\": %q, \"trace\": %d, \"result\": %s}\n", w.name, pass, res.line)
			}
			if res.code != 0 || !res.Correct {
				code = 1
			}
			digests[pass] = res.digest
		}
		if digests[0] != digests[1] {
			fmt.Fprintf(os.Stderr, "bench: %s: trace_digest %s untraced but %s traced: every operation failed\n",
				w.name, digests[0], digests[1])
			code = 1
		}
	}
	return code
}

// quartiles returns the first and third quartile of s as Python's
// statistics.quantiles(s, n=4) computes them (the exclusive method), which
// is what the benchmark's acceptance rule is stated in.
func quartiles(s []float64) (q1, q3 float64) {
	x := append([]float64(nil), s...)
	sort.Float64s(x)
	ld := len(x)
	if ld < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		j = max(1, min(ld-1, j))
		delta := float64(i*m - j*n)
		return (x[j-1]*(n-delta) + x[j]*delta) / n
	}
	return at(1), at(3)
}

// runBaseline rewrites bench/baseline.json: two sets of n runs of every
// workload, seeds 1..n in both sets so that everything seeded repeats
// exactly between them and only the machine's noise differs.
func runBaseline(n int, opt options) int {
	b := baselineFile{
		Host:       hostFacts(),
		RunSeconds: opt.seconds,
		Digests:    make(map[string]map[string]string),
		Workloads:  make(map[string]map[string]baselineMetricRec),
	}
	for s := 1; s <= n; s++ {
		b.Seeds = append(b.Seeds, int64(s))
	}
	for _, w := range workloads {
		b.Digests[w.name] = make(map[string]string)
		recs := make(map[string]baselineMetricRec)
		for set := 0; set < 2; set++ {
			values := make(map[string][]float64)
			for _, seed := range b.Seeds {
				res, err := runChild(opt, w.name, seed, false, false)
				if err != nil || res.code != 0 || !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: baseline run of %s seed %d failed: %v\n", w.name, seed, err)
					return 1
				}
				key := strconv.FormatInt(seed, 10)
				if prev, ok := b.Digests[w.name][key]; ok && prev != res.digest {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d: trace_digest %s in set 1 but %s in set 2\n", w.name, seed, prev, res.digest)
					return 1
				}
				b.Digests[w.name][key] = res.digest
				for name, m := range res.Metrics {
					values[name] = append(values[name], m.Value)
				}
				fmt.Fprintf(os.Stderr, "baseline: set %d %s seed %d done\n", set+1, w.name, seed)
			}
			for _, d := range endToEndMetrics {
				v := values[d.name]
				q1, q3 := quartiles(v)
				med := median(v)
				rec := recs[d.name]
				rec.Unit, rec.Bound = d.unit, d.bound
				rec.Sets = append(rec.Sets, baselineSet{Median: med, Q1: q1, Q3: q3, Spread: (q3 - q1) / med, Values: v})
				recs[d.name] = rec
			}
		}
		b.Workloads[w.name] = recs
	}
	out, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if err := os.WriteFile("bench/baseline.json", append(out, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// hostFacts describes the machine a baseline was taken on.
func hostFacts() map[string]string {
	facts := map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
	if cpuinfo, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(cpuinfo), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				facts["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if commit, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		facts["commit"] = strings.TrimSpace(string(commit))
	}
	return facts
}
