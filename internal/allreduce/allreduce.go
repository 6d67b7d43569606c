// Package allreduce models bandwidth-optimal ring all-reduce (Patarasuk &
// Yuan), the collective underlying the paper's Horovod baseline. The cluster
// simulator charges each synchronous step the standard analytic cost: 2(N-1)
// steps, each moving 1/N of the payload over the slowest link.
package allreduce

import "hetpipe/internal/profile"

// Time predicts one ring all-reduce of the given payload over n workers
// whose slowest interconnect is described by link: 2(N-1) steps, each
// carrying bytes/N plus the per-step latency. With one worker there is
// nothing to do.
func Time(bytes int64, n int, link profile.LinkModel) float64 {
	if n <= 1 || bytes <= 0 {
		return 0
	}
	perStep := link.Latency + float64(bytes)/float64(n)/link.EffectiveBPS()
	return float64(2*(n-1)) * perStep
}

// BusBandwidthVolume reports the per-worker bytes actually moved on the wire
// for an all-reduce of the payload: 2(N-1)/N * bytes — the figure the paper
// quotes when comparing Horovod's 515 MB against ED-local's 103 MB for
// VGG-19.
func BusBandwidthVolume(bytes int64, n int) int64 {
	if n <= 1 {
		return 0
	}
	return 2 * int64(n-1) * bytes / int64(n)
}
