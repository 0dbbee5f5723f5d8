package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// class is an operation class; each is timed on its own.
type class int

const (
	analyze class = iota // a fresh analysis
	query                // a read of an existing result
	edit                 // an additive source edit
	lintOp               // a lint run
	numClasses
)

func (c class) String() string {
	return [...]string{"analyze", "query", "edit", "lint"}[c]
}

// opLog collects one client's operation outcomes. Latencies are kept
// for operations that succeeded and answered correctly; a failed,
// refused or wrong operation counts only in failed.
type opLog struct {
	lat               [numClasses][]float64 // ms
	attempted, failed int
	errs              []string
}

// maxErrs bounds the failure messages a log keeps.
const maxErrs = 8

func (l *opLog) record(c class, d time.Duration, err error) {
	l.attempted++
	if err != nil {
		l.failed++
		if len(l.errs) < maxErrs {
			l.errs = append(l.errs, fmt.Sprintf("%s: %v", c, err))
		}
		return
	}
	l.lat[c] = append(l.lat[c], ms(d))
}

// fail records a check that failed outside any timed operation.
func (l *opLog) fail(c class, err error) {
	l.record(c, 0, err)
}

func (l *opLog) merge(o *opLog) {
	for c := range l.lat {
		l.lat[c] = append(l.lat[c], o.lat[c]...)
	}
	l.attempted += o.attempted
	l.failed += o.failed
	for _, e := range o.errs {
		if len(l.errs) < maxErrs {
			l.errs = append(l.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile of xs (0 < q ≤ 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// tailPercentile is the highest percentile, in thousandths, that leaves
// at least ten of nominal samples beyond it.
func tailPercentile(nominal int) float64 {
	return math.Floor(1000*float64(nominal-10)/float64(nominal)) / 1000
}
