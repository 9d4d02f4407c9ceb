package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"vsystem/internal/workload"
)

// arrivals draws n open-loop jobs of the given classes arriving at rate
// jobs per second. Like workload.OpenLoop.Schedule it gives exponential
// inter-arrival gaps and exponential service times truncated and quantized
// by each class; unlike it, the draws are stratified: the seed shuffles a
// fixed set of exponential quantiles (the gaps, and per class the service
// times) and a fixed set of class labels in exact weight proportion. Every
// seed therefore offers the same work — the same job count, class mix,
// service demand and stream length — in a different order and timing, so
// what differs between seeds is how the cluster copes with it. With
// independent draws, farm's turnaround_p95_ms varied by 18 % across ten
// seeds (interquartile range over median); stratified, by under 1 %.
func arrivals(classes []workload.JobClass, n int, rate float64, seed int64) []workload.Arrival {
	rng := rand.New(rand.NewSource(seed))
	gaps := expQuantiles(n, 1/rate)
	rng.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })

	var totalW float64
	for _, c := range classes {
		totalW += c.Weight
	}
	labels := make([]int, 0, n)
	service := make([][]uint32, len(classes))
	for ci, c := range classes {
		k := int(math.Round(c.Weight / totalW * float64(n)))
		if ci == len(classes)-1 {
			k = n - len(labels) // the last class takes the rounding remainder
		}
		for _, s := range expQuantiles(k, c.MeanServiceMs) {
			labels = append(labels, ci)
			service[ci] = append(service[ci], quantize(c, s))
		}
		sv := service[ci]
		rng.Shuffle(len(sv), func(i, j int) { sv[i], sv[j] = sv[j], sv[i] })
	}
	rng.Shuffle(n, func(i, j int) { labels[i], labels[j] = labels[j], labels[i] })

	out := make([]workload.Arrival, n)
	var at time.Duration
	for i, ci := range labels {
		at += time.Duration(gaps[i] * float64(time.Second))
		ms := service[ci][0]
		service[ci] = service[ci][1:]
		// Named as workload.OpenLoop names its bucket images, so its
		// Images() holds every program the arrivals run.
		prog := fmt.Sprintf("ol-%s-%dms", classes[ci].Name, ms)
		out[i] = workload.Arrival{At: at, Class: ci, ServiceMs: ms, Program: prog}
	}
	return out
}

// expQuantiles returns the n mid-point quantiles of an exponential
// distribution with the given mean, in increasing order.
func expQuantiles(n int, mean float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = -math.Log(1-(float64(i)+0.5)/float64(n)) * mean
	}
	return out
}

// quantize truncates a service-time draw at the class maximum and rounds
// it up to the class quantum, as workload.OpenLoop's unexported
// JobClass.quantize does, so every draw names one of OpenLoop's images.
func quantize(c workload.JobClass, ms float64) uint32 {
	ms = math.Min(ms, c.MaxServiceMs)
	q := c.QuantumMs
	return max(q, (uint32(ms)+q-1)/q*q)
}
