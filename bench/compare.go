package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// readRecords loads an -out file: one outRecord per line.
func readRecords(path string) ([]outRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []outRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r outRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Result == nil {
			return nil, fmt.Errorf("%s:%d: record has no result", path, line)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series collects one metric's values per workload from end-to-end runs.
func series(recs []outRecord) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Result.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// verdict applies one metric's bound to two sets of runs of it:
//
//	worse       b's median is worse than a's by more than bound × a's median
//	unresolved  either set's run-to-run spread (IQR ÷ median) exceeds the
//	            bound, so a difference of that size cannot be told from
//	            noise — unless the two sets do not even overlap, in which
//	            case every run of b beating every run of a is ok and every
//	            run losing by more than the bound is worse
//	ok          otherwise
func verdict(m metricSpec, a, b []float64) (ratio float64, v string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		ratio = mb / ma
	}
	lower := m.Better == "lower"
	worseBy := mb - ma
	if !lower {
		worseBy = ma - mb
	}
	limit := m.Bound * math.Abs(ma)
	if spread(a) > m.Bound || spread(b) > m.Bound {
		sa, sb := sortedCopy(a), sortedCopy(b)
		bBelow, bAbove := sb[len(sb)-1] < sa[0], sb[0] > sa[len(sa)-1]
		allBetter, allWorse := bBelow, bAbove
		if !lower {
			allBetter, allWorse = bAbove, bBelow
		}
		switch {
		case allBetter:
			return ratio, "ok"
		case allWorse && worseBy > limit:
			return ratio, "worse"
		}
		return ratio, "unresolved"
	}
	if worseBy > limit {
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareFiles prints one row per workload × end-to-end metric — each
// ratio with its base — and reports whether any row is worse. Failed ops
// and incorrect runs are compared too: any increase regresses.
func compareFiles(w io.Writer, sp *spec, pathA, pathB string) (worse bool, err error) {
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	sa, sb := series(ra), series(rb)
	fmt.Fprintf(w, "%-17s %-12s %3s %12s %7s %12s %7s %7s %6s  %s\n",
		"workload", "metric", "n", "base(a)", "iqr%", "b", "iqr%", "b/a", "bound", "verdict")
	for _, wl := range sp.Workloads {
		a, b := sa[wl.Name], sb[wl.Name]
		if a == nil || b == nil {
			continue
		}
		for _, m := range sp.EndToEnd {
			va, vb := a[m.Name], b[m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ratio, v := verdict(m, va, vb)
			worse = worse || v == "worse"
			fmt.Fprintf(w, "%-17s %-12s %3d %12.4f %6.1f%% %12.4f %6.1f%% %7.4f %5.0f%%  %s\n",
				wl.Name, m.Name, min(len(va), len(vb)), median(va), 100*spread(va), median(vb), 100*spread(vb), ratio, 100*m.Bound, v)
		}
		fa, fb := failedOps(ra, wl.Name), failedOps(rb, wl.Name)
		v := "ok"
		if fb > fa {
			v, worse = "worse", true
		}
		fmt.Fprintf(w, "%-17s %-12s %3s %12d %7s %12d %7s %7s %6s  %s\n", wl.Name, "failed+wrong", "", fa, "", fb, "", "", "0", v)
	}
	return worse, nil
}

// failedOps counts failed ops plus incorrect runs of one workload.
func failedOps(recs []outRecord, workload string) int {
	n := 0
	for _, r := range recs {
		if r.Workload != workload {
			continue
		}
		n += r.Result.Failed
		if !r.Result.Correct {
			n++
		}
	}
	return n
}

// sortedKeys lists a map's keys in order, for messages that must not
// depend on map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
