package sim

// Source is a small, fast, deterministic pseudo-random source
// (xoshiro256** seeded via splitmix64). It is intentionally independent of
// math/rand so that streams are stable across Go releases: reproduction
// runs must produce identical event traces forever.
type Source struct {
	s [4]uint64
}

// NewSource returns a source seeded from seed via splitmix64.
func NewSource(seed uint64) *Source {
	var src Source
	src.reseed(seed)
	return &src
}

// reseed rewinds the source to the state NewSource(seed) would produce,
// in place, so pooled holders of the pointer see the fresh stream.
func (s *Source) reseed(seed uint64) {
	x := seed
	for i := range s.s {
		x = splitmix64(&x)
		s.s[i] = x
	}
	// Avoid the all-zero state, which is a fixed point of xoshiro.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
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

// Intn returns a uniform value in [0, n). It panics when n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [lo, hi]. It panics when hi < lo.
func (s *Source) Duration(lo, hi Duration) Duration {
	if hi < lo {
		panic("sim: Duration with hi < lo")
	}
	if hi == lo {
		return lo
	}
	span := uint64(hi - lo + 1)
	return lo + Duration(s.Uint64()%span)
}

// Jitter returns d scaled by a uniform factor in [1-frac, 1+frac].
// It models natural run-to-run variation in latencies without
// compromising determinism.
func (s *Source) Jitter(d Duration, frac float64) Duration {
	if frac <= 0 {
		return d
	}
	f := 1 - frac + 2*frac*s.Float64()
	return Duration(float64(d) * f)
}

// Exp returns an exponentially distributed duration with the given mean,
// clamped to [0, 50*mean] to keep event horizons bounded.
func (s *Source) Exp(mean Duration) Duration {
	if mean <= 0 {
		return 0
	}
	u := s.Float64()
	if u <= 0 {
		u = 1e-12
	}
	d := Duration(-float64(mean) * ln(u))
	if d > 50*mean {
		d = 50 * mean
	}
	return d
}

// Perm returns a deterministic pseudo-random permutation of [0, n).
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

// ln computes the natural logarithm via the standard library-compatible
// identity; kept as a tiny wrapper so the dependency surface of this
// package stays obvious.
func ln(x float64) float64 {
	// math.Log is deterministic across platforms for our purposes.
	return mathLog(x)
}

// Mix hashes the pair (a, b) into a well-distributed 64-bit value: the
// splitmix64 output for state a ^ rotl(b, 29). Mix(v, 0), Mix(v, 1), ...
// derive independent seeds from one drawn value v.
func Mix(a, b uint64) uint64 {
	x := a ^ rotl(b, 29)
	x = splitmix64(&x)
	return x
}

func hashString(s string) uint64 {
	// FNV-1a, 64-bit.
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}
