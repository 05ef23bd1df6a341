// Package xrand provides deterministic pseudo-random streams and the
// distributions the workload generators draw task parameters from.
//
// The generator is xoshiro256**, seeded through splitmix64 as its authors
// recommend. Compared to math/rand it gives us (a) cheap independent
// sub-streams (every workload, task type and simulation component gets its
// own stream derived from a name, so adding a draw in one place never
// perturbs another), and (b) an algorithm pinned in this repository, so
// results cannot drift with Go releases.
package xrand

import (
	"math"
	"strconv"
)

// Source is a deterministic xoshiro256** stream. It implements the subset
// of math/rand's API the simulator needs, plus distribution helpers.
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seed expansion state and returns the next value.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from seed via splitmix64.
func New(seed uint64) *Source {
	var s Source
	s.Seed(seed)
	return &s
}

// Seed resets s, in place, to the start of the stream New(seed) returns.
// A Source held by value and reseeded this way allocates nothing.
func (s *Source) Seed(seed uint64) {
	x := seed
	for i := range s.s {
		s.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a continues an FNV-1a hash h over name; fnv1a(fnvOffset, name)
// hashes name alone.
func fnv1a[T string | []byte](h uint64, name T) uint64 {
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime
	}
	return h
}

// Stream returns an independent sub-stream derived from this source's seed
// material and the given name. Calling Stream does not advance the parent,
// so components may be added or removed without perturbing each other.
func (s *Source) Stream(name string) *Source {
	return New(s.s[0] ^ fnv1a(fnvOffset, name))
}

// SeedStream resets s, in place, to the start of New(seed).Stream(name),
// without allocating either source.
func (s *Source) SeedStream(seed uint64, name string) {
	s.Seed(seed)
	s.Seed(s.s[0] ^ fnv1a(fnvOffset, name))
}

// SeedStreamIndexed resets s, in place, to the start of
// New(seed).Stream(name + strconv.Itoa(i)): one of a family of numbered
// sub-streams, derived without formatting the name.
func (s *Source) SeedStreamIndexed(seed uint64, name string, i int) {
	var digits [20]byte
	h := fnv1a(fnv1a(fnvOffset, name), strconv.AppendInt(digits[:0], int64(i), 10))
	s.Seed(seed)
	s.Seed(s.s[0] ^ h)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[1]*5, 7) * 9
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Int63 returns a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with n <= 0")
	}
	return int(s.Uint64() % uint64(n)) // negligible modulo bias for our n
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int64n(n int64) int64 {
	if n <= 0 {
		panic("xrand: Int64n with n <= 0")
	}
	return int64(s.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Perm returns a random permutation of [0, n), Fisher-Yates.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Uniform returns a uniform float64 in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation (Box-Muller).
func (s *Source) Normal(mean, stddev float64) float64 {
	// Avoid log(0).
	u1 := 1 - s.Float64()
	u2 := s.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNormal returns exp(N(mu, sigma)). Workload task durations use this:
// positive, right-skewed, with sigma controlling imbalance.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMean returns a log-normal sample with the given arithmetic mean
// and sigma (of the underlying normal). Convenient when the generator
// knows the average task duration it wants.
func (s *Source) LogNormalMean(mean, sigma float64) float64 {
	if mean <= 0 {
		panic("xrand: LogNormalMean with mean <= 0")
	}
	mu := math.Log(mean) - sigma*sigma/2
	return s.LogNormal(mu, sigma)
}

// Exp returns an exponentially distributed float64 with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return -mean * math.Log(1-s.Float64())
}

// Jitter returns base scaled by a uniform factor in [1-frac, 1+frac].
func (s *Source) Jitter(base, frac float64) float64 {
	return base * s.Uniform(1-frac, 1+frac)
}
