// Package ref is the benchmark's frozen reference workload: a synthetic
// discrete-event loop (a binary heap of closures, small per-event
// allocations, map updates) with the same kind of work the simulator does,
// but written once and never changed. It imports only the standard
// library, so no change to the program under test can move its cost. The
// benchmark times one call after every op and divides each op's host time
// by the median of its neighbours' calls, which cancels part of the host's
// own drift (NOTES.md has the evidence).
package ref

const (
	// events is the number of events one Work call executes (about
	// 0.3 ms of host time on a 2.1 GHz Xeon core).
	events = 1000
	// pending is how many events the heap holds while the loop runs.
	pending = 256
	// keys is the size of the key space the map updates spread over.
	keys = 512
)

type event struct {
	at  uint64
	seq uint64
	fn  func(*loop)
}

type payload struct {
	key  uint32
	hops uint32
	data [4]uint64
}

type loop struct {
	heap   []event
	seq    uint64
	now    uint64
	rnd    uint64
	counts map[uint32]uint32
	sum    uint64
	ran    int
}

func (l *loop) next() uint64 {
	l.rnd ^= l.rnd << 13
	l.rnd ^= l.rnd >> 7
	l.rnd ^= l.rnd << 17
	return l.rnd
}

func (l *loop) less(i, j int) bool {
	a, b := &l.heap[i], &l.heap[j]
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (l *loop) push(at uint64, fn func(*loop)) {
	l.seq++
	l.heap = append(l.heap, event{at: at, seq: l.seq, fn: fn})
	for i := len(l.heap) - 1; i > 0; {
		p := (i - 1) / 2
		if !l.less(i, p) {
			break
		}
		l.heap[i], l.heap[p] = l.heap[p], l.heap[i]
		i = p
	}
}

func (l *loop) pop() event {
	top := l.heap[0]
	last := len(l.heap) - 1
	l.heap[0] = l.heap[last]
	l.heap[last] = event{}
	l.heap = l.heap[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && l.less(c+1, c) {
			c++
		}
		if !l.less(c, i) {
			break
		}
		l.heap[i], l.heap[c] = l.heap[c], l.heap[i]
		i = c
	}
	return top
}

// schedule queues a fresh closure over a newly allocated payload.
func (l *loop) schedule(hops uint32) {
	p := &payload{key: uint32(l.next() % keys), hops: hops}
	for i := range p.data {
		p.data[i] = l.next()
	}
	l.push(l.now+1+l.next()%1000, func(l *loop) {
		l.counts[p.key]++
		l.sum += p.data[p.hops%4] ^ uint64(l.counts[p.key])
		if p.hops > 0 {
			l.schedule(p.hops - 1)
		}
	})
}

// Work runs one fixed unit of reference work and returns its checksum,
// which is the same on every call (TestWorkIsDeterministic).
func Work() uint64 {
	l := &loop{rnd: 0x9E3779B97F4A7C15, counts: make(map[uint32]uint32, keys)}
	for l.ran < events {
		if len(l.heap) < pending {
			l.schedule(8)
			continue
		}
		ev := l.pop()
		l.now = ev.at
		ev.fn(l)
		l.ran++
	}
	return l.sum ^ uint64(len(l.heap))
}
