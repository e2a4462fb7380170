package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"

	"github.com/pardon-feddg/pardon/internal/telemetry"
)

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile interpolates linearly between the closest ranks of an
// ascending slice (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is num/den, 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// promSums reads a registry through its Prometheus exposition and sums
// every sample per series name across label sets (histograms appear as
// name_sum and name_count). Reading the text leaves the registry
// untouched: looking a family up through the registry API would register
// it, with this reader's bucket layout, if the program had not yet.
func promSums(reg *telemetry.Registry) map[string]float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return nil
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] += v
	}
	return out
}

// promLabeled returns one labeled sample (0 when absent), e.g.
// promLabeled(reg, `dist_worker_pulls_total{outcome="lease"}`).
func promLabeled(reg *telemetry.Registry, series string) float64 {
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		return 0
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, series+" ") {
			v, _ := strconv.ParseFloat(line[len(series)+1:], 64)
			return v
		}
	}
	return 0
}
