// Fixture for the journalorder analyzer: the PR 6 ordering invariant on
// commit paths. Mirrors the System.applyBatch shape — a wal field with
// Append, an engine with ApplyBatch, a window ring with Record — with every
// ordering violation and the replay/conditional-journal regressions.
package service

import "errors"

type batch struct{ n int }

type log struct{ seq uint64 }

func (l *log) Append(seq uint64, b batch) error {
	l.seq = seq
	return nil
}

type engine struct{ applied int }

func (e *engine) ApplyBatch(b batch) { e.applied++ }

type ring struct{ recorded int }

func (r *ring) Record(b batch) { r.recorded++ }

type session struct {
	wal     *log
	js      *engine
	win     *ring
	batches uint64
}

// ---- positives ----

func appendAfterMutation(s *session, b batch) error {
	s.js.ApplyBatch(b)
	if err := s.wal.Append(s.batches+1, b); err != nil { // want "WAL append after state mutation"
		return err
	}
	s.batches++
	return nil
}

func mutationAfterFailedAppend(s *session, b batch) error {
	err := s.wal.Append(s.batches+1, b)
	if err != nil {
		s.js.ApplyBatch(b) // want "state mutation after a failed WAL append"
		return err
	}
	s.win.Record(b)
	return nil
}

func journaledButNotApplied(s *session, b batch, skip bool) error {
	if err := s.wal.Append(s.batches+1, b); err != nil {
		return err
	}
	if skip {
		return nil // want "journaled but not applied"
	}
	s.js.ApplyBatch(b)
	return nil
}

func windowRecordCountsAsMutation(s *session, b batch) error {
	s.win.Record(b)
	if err := s.wal.Append(s.batches+1, b); err != nil { // want "WAL append after state mutation"
		return err
	}
	s.js.ApplyBatch(b)
	return nil
}

// ---- regressions ----

// The canonical commit ordering: append, bail on failure, then apply and
// commit. Clean.
func cleanCommitPath(s *session, b batch) error {
	if err := s.wal.Append(s.batches+1, b); err != nil {
		return err
	}
	s.win.Record(b)
	s.js.ApplyBatch(b)
	s.batches++
	return nil
}

// Journaling is conditional (recovery replay runs with the WAL detached);
// mutators after a maybe-journaled point are fine, and an unjournaled
// success return is fine.
func cleanConditionalJournal(s *session, b batch, journal bool) error {
	if journal && s.wal != nil {
		if err := s.wal.Append(s.batches+1, b); err != nil {
			return err
		}
	}
	s.js.ApplyBatch(b)
	s.batches++
	return nil
}

// Replay paths mutate without any append in the function at all: out of
// scope by construction (the invariant constrains journaled commits).
func cleanReplay(s *session, rs []batch) {
	for _, b := range rs {
		s.js.ApplyBatch(b)
		s.batches++
	}
}

// An error return straight after a failed append is the correct shape.
func cleanFailedAppendReturns(s *session, b batch) error {
	if err := s.wal.Append(s.batches+1, b); err != nil {
		return errors.Join(errors.New("journal"), err)
	}
	s.js.ApplyBatch(b)
	return nil
}

// A helper whose only job is journaling never applies; without a mutator in
// the body it is out of scope rather than "journaled but not applied".
func cleanJournalOnly(s *session, b batch) error {
	return s.wal.Append(s.batches+1, b)
}
