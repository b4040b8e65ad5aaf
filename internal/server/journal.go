package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dlearn/internal/fault"
	"dlearn/internal/persist"
	"dlearn/internal/server/wire"
)

// The job journal makes accepted jobs durable across server restarts. Every
// admitted job is written as one JSON record file under the journal
// directory (mirroring persist.DirStore's one-file-per-entry, atomic
// temp-plus-rename idiom); the record is rewritten once with the terminal
// state, result or error and the full event log when the job finishes. On
// boot the server replays the directory: terminal records are restored into
// the registry — status, result, event replay and /v1/stats outcomes survive
// the restart — and records still in a non-terminal state (queued at the
// crash, or running and never finished) are re-enqueued and re-run from
// scratch. The wire codec serializes the whole problem, so a recovered job
// learns exactly what the original submission would have.

// jobFileExt is the extension of journal record files.
const jobFileExt = ".job"

// journalEvent is one persisted stream event: the SSE event name plus its
// JSON payload.
type journalEvent struct {
	Name string          `json:"name"`
	Data json.RawMessage `json:"data"`
}

// journalRecord is the persisted form of one job. Problem embeds the per-job
// wire options (including the requested timeout), so the record alone is
// enough to re-run the job.
type journalRecord struct {
	ID          string       `json:"id"`
	Tenant      string       `json:"tenant"`
	State       string       `json:"state"`
	SubmittedAt time.Time    `json:"submitted_at"`
	StartedAt   time.Time    `json:"started_at,omitzero"`
	FinishedAt  time.Time    `json:"finished_at,omitzero"`
	Problem     wire.Problem `json:"problem"`
	Error       string       `json:"error,omitempty"`
	Result      *wire.Result `json:"result,omitempty"`
	// ResultKey is the hex result-cache key of a completed job, stored so a
	// restart can repopulate the result cache without recomputing the
	// fingerprint.
	ResultKey string         `json:"result_key,omitempty"`
	Events    []journalEvent `json:"events,omitempty"`
	// Degraded marks a job whose persistence degraded mid-flight (a journal
	// or snapshot write failed and the server carried on in memory), so the
	// flag survives a restart along with the rest of the record.
	Degraded bool `json:"degraded,omitempty"`
}

// journal persists job records in one directory, one file per job ID.
type journal struct {
	dir string
	// faults, when non-nil, injects write failures at the "journal.admit"
	// (queued record) and "journal.finish" (terminal rewrite) seams.
	faults *fault.Injector
}

// openJournal prepares a journal rooted at dir, creating the directory so an
// unwritable location fails at boot rather than at the first submission.
func openJournal(dir string) (*journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: creating job journal dir: %w", err)
	}
	return &journal{dir: dir}, nil
}

func (jl *journal) path(id string) string {
	return filepath.Join(jl.dir, id+jobFileExt)
}

// save writes a record atomically (persist.WriteFileAtomic), so a crash can
// leave at worst a stale temp file, never a torn record.
func (jl *journal) save(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("server: encoding journal record %s: %w", rec.ID, err)
	}
	point := "journal.finish"
	if rec.State == wire.StateQueued {
		point = "journal.admit"
	}
	if f := jl.faults.Fire(point); f != nil {
		if f.Kind == fault.KindTorn {
			// A torn record under the final name — what a crash mid-write can
			// leave on a non-atomic filesystem. load sets it aside as .corrupt.
			_ = os.WriteFile(jl.path(rec.ID), f.Torn(data), 0o644)
		}
		return f.Err()
	}
	if err := persist.WriteFileAtomic(jl.path(rec.ID), data); err != nil {
		return fmt.Errorf("server: writing journal record %s: %w", rec.ID, err)
	}
	return nil
}

// remove deletes a job's record (best effort — retention eviction must not
// fail on a journal hiccup; the stale record is simply re-evicted next boot).
func (jl *journal) remove(id string) {
	os.Remove(jl.path(id))
}

// load reads every record in the journal. Corrupt or unreadable records are
// renamed aside with a .corrupt suffix, skipped and counted — one damaged
// file must not take down recovery of the rest, and the count surfaces in
// /v1/stats so set-aside records are never silently dropped. Records are
// returned sorted by submission time (ties broken by ID) so re-enqueued jobs
// keep their original admission order.
func (jl *journal) load() (recs []journalRecord, corrupt int, err error) {
	entries, err := os.ReadDir(jl.dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("server: reading job journal: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, jobFileExt) {
			continue
		}
		path := filepath.Join(jl.dir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		var rec journalRecord
		if json.Unmarshal(data, &rec) != nil || rec.ID == "" ||
			rec.ID+jobFileExt != name {
			os.Rename(path, path+".corrupt")
			corrupt++
			continue
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].SubmittedAt.Equal(recs[j].SubmittedAt) {
			return recs[i].SubmittedAt.Before(recs[j].SubmittedAt)
		}
		return recs[i].ID < recs[j].ID
	})
	return recs, corrupt, nil
}

// truncateEvents caps a record's serialized event log at maxBytes, dropping
// the oldest events first and prepending a wire.EventLogTruncated marker so a
// replaying client can tell the log is partial. The terminal event always
// survives (the cap is applied to the front of the log). maxBytes <= 0 means
// unbounded.
func truncateEvents(events []journalEvent, maxBytes int) []journalEvent {
	if maxBytes <= 0 {
		return events
	}
	total := 0
	sizes := make([]int, len(events))
	for i, ev := range events {
		sizes[i] = len(ev.Name) + len(ev.Data) + 32 // field names, quoting, commas
		total += sizes[i]
	}
	if total <= maxBytes {
		return events
	}
	drop := 0
	for drop < len(events)-1 && total > maxBytes {
		total -= sizes[drop]
		drop++
	}
	marker, _ := json.Marshal(map[string]int{"dropped": drop})
	out := make([]journalEvent, 0, len(events)-drop+1)
	out = append(out, journalEvent{Name: wire.EventLogTruncated, Data: marker})
	return append(out, events[drop:]...)
}
