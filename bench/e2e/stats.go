package main

import (
	"bufio"
	"math"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule on a sorted copy: the smallest sample with at least p%
// of the samples at or below it. It returns 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count), 0 for an empty slice. Per-round rates and CPU are reduced
// with it so one slow round on a shared host does not move the result.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// acceptance check of the benchmark contract uses. It needs two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		// statistics.quantiles, method="exclusive": rank k*(n+1)/4,
		// the lower index clamped to 1..n-1 and the remainder taken
		// after clamping (so the ends extrapolate, as Python's do).
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spreadShare is the distance between the quartiles as a share of the
// median, the steadiness figure the contract bounds.
func spreadShare(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// promSamples maps a Prometheus sample (name plus its label set, exactly as
// exposed) to its value.
type promSamples map[string]float64

// parseProm reads Prometheus text exposition: comment lines are skipped and
// every "name{labels} value" line becomes one entry. Lines it cannot read
// are ignored, since a scrape is a measurement aid, not an input to check.
func parseProm(text string) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta returns after[key] - before[key]; a key missing on either side
// counts as 0 there.
func (after promSamples) delta(before promSamples, key string) float64 {
	return after[key] - before[key]
}

// deltaPrefix sums the deltas of every sample whose key starts with
// prefix, which adds a family up over its label values.
func (after promSamples) deltaPrefix(before promSamples, prefix string) float64 {
	var sum float64
	for k, v := range after {
		if strings.HasPrefix(k, prefix) {
			sum += v - before[k]
		}
	}
	return sum
}

// ratio returns useful/(useful+wasted), and 1 when nothing was attempted:
// a layer that was never asked wasted nothing.
func ratio(useful, wasted float64) float64 {
	if useful+wasted == 0 {
		return 1
	}
	return useful / (useful + wasted)
}

// div returns a/b, and 0 when b is 0.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
