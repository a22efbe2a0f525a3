package stream

import (
	"time"
)

// FirstByte returns the timestamp of the first written byte (zero until
// then; CloseWriter on an empty body stamps both).
func (s *Spool) FirstByte() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstByte
}

// LastByte returns the CloseWriter timestamp (zero until done).
func (s *Spool) LastByte() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastByte
}
