package plan

import (
	"sync"

	"cheetah/internal/prune"
)

// programs is a session's free list of idle switch programs. A real
// switch's registers are fixed SRAM cleared between queries; here a
// program's registers are the arrays its constructor allocates (a GROUP
// BY matrix is half a megabyte), so a program a query is done with is
// Reset and kept for the next query of the same configuration instead of
// being rebuilt. Every listed program is cold: Reset is the whole of what
// a fresh build would give (prune.FuzzResetMatchesFresh), so a query that
// takes one runs exactly as on a new instance.
//
// Programs are keyed by the comparable prune config they were built from
// (engine.Program.Key). The list holds at most one switch of the session's
// Model: the idle programs' SRAM sums to at most Stages ×
// SRAMPerStageBits, and a hand-back past that drops the oldest idle
// programs, so configurations arriving from the wire (TOP N's N, HAVING's
// threshold) can neither grow the list nor crowd out the ones in use.
type programs struct {
	mu    sync.Mutex
	bound int // Model.TotalSRAMBits()
	bits  int // Σ idle[i].bits
	idle  []idleProgram
}

// idleProgram is one listed program, with its key and SRAM charge.
type idleProgram struct {
	key  any
	bits int
	prog prune.Pruner
}

// take removes and returns the most recently listed program built from
// key, or nil when there is none. A plan without a pooled program has a
// nil key and no list.
func (l *programs) take(key any) prune.Pruner {
	if l == nil || key == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := len(l.idle) - 1; i >= 0; i-- {
		if e := l.idle[i]; e.key == key {
			l.bits -= e.bits
			copy(l.idle[i:], l.idle[i+1:])
			l.idle[len(l.idle)-1] = idleProgram{}
			l.idle = l.idle[:len(l.idle)-1]
			return e.prog
		}
	}
	return nil
}

// give hands p's programs back after a run that returned without error,
// failover or degradation: each is Reset, then listed, evicting the
// oldest idle programs while the list's SRAM exceeds its bound.
func (l *programs) give(p *Plan, progs []prune.Pruner) {
	bits := p.Profile.SRAMBits
	if p.prog.Key == nil || bits > l.bound {
		return // not pooled, or larger than the whole list
	}
	for _, pr := range progs {
		pr.Reset()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, pr := range progs {
		l.idle = append(l.idle, idleProgram{key: p.prog.Key, bits: bits, prog: pr})
		l.bits += bits
	}
	drop := 0
	for l.bits > l.bound {
		l.bits -= l.idle[drop].bits
		drop++
	}
	if drop > 0 {
		n := copy(l.idle, l.idle[drop:])
		clear(l.idle[n:])
		l.idle = l.idle[:n]
	}
}
