package main

import (
	"math"
	"strconv"
	"strings"
)

// hist is a cumulative Prometheus histogram as scraped: upper bounds with
// cumulative counts, the +Inf count and the sum.
type hist struct {
	le    []float64
	cum   []float64
	count float64
	sum   float64
}

// sub returns the histogram of the observations made between two scrapes.
func (h hist) sub(prev hist) hist {
	d := hist{le: h.le, cum: append([]float64(nil), h.cum...), count: h.count - prev.count, sum: h.sum - prev.sum}
	for i := range d.cum {
		if i < len(prev.cum) {
			d.cum[i] -= prev.cum[i]
		} else {
			d.cum[i] -= prev.count // the earlier scrape had nothing above its last bucket
		}
	}
	return d
}

// quantile estimates the q-quantile by linear interpolation inside the
// bucket that holds it, as Prometheus' histogram_quantile does.
func (h hist) quantile(q float64) float64 {
	if h.count <= 0 || len(h.le) == 0 {
		return 0
	}
	rank := q * h.count
	lo, below := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if c == below {
				return h.le[i]
			}
			return lo + (h.le[i]-lo)*(rank-below)/(c-below)
		}
		lo, below = h.le[i], c
	}
	return h.le[len(h.le)-1]
}

// scraped is what the benchmark reads from one /metrics scrape.
type scraped struct {
	chunkItems    hist // fastsketches_ingest_chunk_items
	chunkSeconds  hist // fastsketches_ingest_chunk_duration_seconds
	residentBytes float64
	backlog       float64
}

// parseMetrics reads the Prometheus text exposition. Per-sketch gauges are
// summed over sketches.
func parseMetrics(text string) scraped {
	var s scraped
	for _, line := range strings.Split(text, "\n") {
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
		series := line[:i]
		name, labels, _ := strings.Cut(series, "{")
		switch {
		case name == "fastsketches_sketch_resident_bytes":
			s.residentBytes += v
		case name == "fastsketches_sketch_backlog":
			s.backlog += v
		case strings.HasPrefix(name, "fastsketches_ingest_chunk_items"):
			s.chunkItems.observe(strings.TrimPrefix(name, "fastsketches_ingest_chunk_items"), labels, v)
		case strings.HasPrefix(name, "fastsketches_ingest_chunk_duration_seconds"):
			s.chunkSeconds.observe(strings.TrimPrefix(name, "fastsketches_ingest_chunk_duration_seconds"), labels, v)
		}
	}
	return s
}

// observe stores one histogram series line (suffix _bucket, _sum or _count).
func (h *hist) observe(suffix, labels string, v float64) {
	switch suffix {
	case "_sum":
		h.sum = v
	case "_count":
		h.count = v
	case "_bucket":
		_, rest, _ := strings.Cut(labels, `le="`)
		bound, _, _ := strings.Cut(rest, `"`)
		if bound == "+Inf" {
			return
		}
		le, err := strconv.ParseFloat(bound, 64)
		if err != nil || math.IsNaN(le) {
			return
		}
		h.le = append(h.le, le)
		h.cum = append(h.cum, v)
	}
}
