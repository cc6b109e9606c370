package plan

import "cheetah/internal/prune"

// IdlePrograms returns the session's free list: its idle programs, oldest
// first, and their summed SRAM bits.
func IdlePrograms(s *Session) ([]prune.Pruner, int) {
	s.free.mu.Lock()
	defer s.free.mu.Unlock()
	progs := make([]prune.Pruner, len(s.free.idle))
	for i, e := range s.free.idle {
		progs[i] = e.prog
	}
	return progs, s.free.bits
}
