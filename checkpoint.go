package fastsketches

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"fastsketches/internal/clock"
	"fastsketches/internal/snapshot"
)

// Registry-wide checkpoint/restore: every registered sketch's merged state —
// legacy ∪ draining epoch ∪ current shards, the exact fold merged queries
// use — is exported into one versioned snapshot container
// (internal/snapshot), together with the Spec in force, every field of it,
// so a restore configures the sketch exactly as it ran.
//
// # Crash-recovery bound
//
// A checkpoint's fold floor is the wait-free merged fold at encode time: it
// reflects every update acked before the checkpoint except at most the
// sketch's Relaxation() = S·r (transiently S_old·r + S_new·r during a
// resize) still buffered in writer lanes. Restoring the checkpoint therefore
// guarantees: every update acked more than one checkpoint interval plus the
// relaxation window before the crash is recovered; updates acked after the
// last completed checkpoint's fold may be lost. Nothing is ever recovered
// twice — the checkpoint folds into the restored sketch's legacy
// accumulator, the same exact-once plane a Resize drains retired epochs
// into.

// AppendCheckpoint appends the registry's full checkpoint container to dst
// and returns the extended slice. The encode is wait-free toward writers and
// queriers: state is captured through the same pooled-accumulator fold
// merged queries use, so no propagator is blocked and no new allocation
// regime is introduced — with a pre-grown dst, steady-state checkpoints
// allocate nothing.
//
// Unlike other registry methods, checkpointing works after Close: the final
// shutdown checkpoint captures the drained (exact) state, which is the most
// valuable one to persist.
func (r *Registry) AppendCheckpoint(dst []byte) []byte {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	return r.appendCheckpointLocked(dst)
}

// appendCheckpointLocked is AppendCheckpoint's body; the caller holds
// r.ckptMu (which owns the ckptEntries/ckptNameBuf scratch).
func (r *Registry) appendCheckpointLocked(dst []byte) []byte {
	entries := r.ckptEntries[:0]
	r.mu.RLock()
	for _, e := range r.sketches {
		entries = append(entries, infoEntry{e, e.lc})
	}
	r.mu.RUnlock()
	r.ckptEntries = entries

	// Deterministic record order (family, then name): map iteration is
	// randomised, and a stable layout makes checkpoints diffable and keeps
	// the fuzzers' corpus meaningful.
	slices.SortFunc(entries, func(a, b infoEntry) int {
		if a.e.key.fam != b.e.key.fam {
			return int(a.e.key.fam) - int(b.e.key.fam)
		}
		return strings.Compare(a.e.key.name, b.e.key.name)
	})

	dst = snapshot.AppendHeader(dst, len(entries))
	for i := range entries {
		ie := &entries[i]
		sk := ie.e.sk
		r.ckptNameBuf = append(r.ckptNameBuf[:0], ie.e.key.name...)
		var pl planes
		rec := snapshot.Record{Family: ie.e.key.fam, Name: r.ckptNameBuf, Spec: ie.spec(&pl)}
		var m snapshot.Marks
		dst, m = snapshot.BeginRecord(dst, &rec)
		if rec.Spec.Window != nil {
			// Windowed sketches serialise slot-by-slot: the base blob holds
			// everything outside the closed ring (live shards, carry, legacy,
			// in the cumulative plane), the tail each closed interval plus
			// the decay plane, so a restore rebuilds the ring — and hence
			// windowed queries — not just the cumulative total.
			var slots [][]byte
			var decayed []byte
			dst, slots, decayed = sk.AppendWindowedSnapshot(dst)
			dst = snapshot.EndBlob(dst, &m)
			dst = snapshot.AppendWindowTail(dst, slots, decayed)
		} else {
			dst = sk.AppendSnapshot(dst)
		}
		dst = snapshot.EndRecord(dst, m)
	}
	return dst
}

// Checkpoint encodes the registry's full checkpoint container into an
// internal reused buffer and writes it to w in one Write call. See
// AppendCheckpoint for the capture semantics and the crash-recovery bound.
func (r *Registry) Checkpoint(w io.Writer) error {
	r.ckptMu.Lock()
	defer r.ckptMu.Unlock()
	r.ckptBuf = r.appendCheckpointLocked(r.ckptBuf[:0])
	if _, err := w.Write(r.ckptBuf); err != nil {
		return fmt.Errorf("fastsketches: checkpoint write: %w", err)
	}
	return nil
}

// Restore reads one checkpoint container from rd and folds every record into
// this registry: each record's sketch is created under its recorded name (if
// absent) and configured with its recorded Spec exactly as Open* would, its
// window ring rebuilt from the recorded slots, and its snapshot folded into
// the sketch's legacy state (exact, no staleness contribution). A record's
// Spec passes the same validation as any other, before its sketch is
// created, so a rejected record leaves nothing registered. A container in
// any format version but snapshot.Version is rejected whole with
// snapshot.ErrVersion before any record is read. Restoring into a
// non-empty registry merges: existing state is kept and the snapshot folds
// in on top — which is also what makes Restore idempotent-unsafe (restoring
// the same additive-family snapshot twice doubles Count-Min weights);
// restore into a fresh registry for crash recovery.
//
// Writers and queriers of already-registered sketches stay active
// throughout. Malformed input fails with the snapshot codec's typed errors,
// family mismatches with the family's typed errors; records before the
// failure stay imported. Restore after Close is an error.
func (r *Registry) Restore(rd io.Reader) error {
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return fmt.Errorf("fastsketches: Restore after Close")
	}
	data, err := io.ReadAll(rd)
	if err != nil {
		return fmt.Errorf("fastsketches: checkpoint read: %w", err)
	}
	count, rest, err := snapshot.ParseHeader(data)
	if err != nil {
		return err
	}
	for i := 0; i < count; i++ {
		var rec snapshot.Record
		rec, rest, err = snapshot.ParseRecord(rest)
		if err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
		if err := r.restoreRecord(&rec); err != nil {
			return fmt.Errorf("record %d (%s/%s): %w", i, rec.Family, rec.Name, err)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d bytes after %d records", snapshot.ErrTrailing, len(rest), count)
	}
	return nil
}

// restoreRecord applies one parsed checkpoint record (its family already
// validated by the codec): the base blob folds into legacy, then apply
// configures the sketch with the record's Spec and rebuilds its window from
// the record's slots.
func (r *Registry) restoreRecord(rec *snapshot.Record) error {
	if err := rec.Spec.Validate(rec.Family); err != nil {
		return err
	}
	e := r.getOrCreate(rec.Family, string(rec.Name))
	if err := e.sk.ImportSnapshot(rec.Blob); err != nil {
		return err
	}
	return r.apply(e, rec.Spec, rec)
}

// CheckpointFile writes the registry's checkpoint atomically to path: the
// container is written to a temporary file in the same directory, fsynced,
// and renamed into place (with a directory fsync), so a crash mid-write can
// never leave a truncated or torn checkpoint under path — readers see either
// the previous complete checkpoint or the new one.
func (r *Registry) CheckpointFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("fastsketches: checkpoint temp file: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := r.Checkpoint(tmp); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("fastsketches: checkpoint fsync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("fastsketches: checkpoint close: %w", err))
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("fastsketches: checkpoint rename: %w", err)
	}
	// The rename must itself be durable: fsync the directory so the new
	// entry survives a crash (best-effort on filesystems that refuse
	// directory syncs).
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// RestoreFile restores the registry from a checkpoint written by
// CheckpointFile.
func (r *Registry) RestoreFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fastsketches: restore open: %w", err)
	}
	defer f.Close()
	return r.Restore(f)
}

// Checkpointer periodically writes the registry's checkpoint to a file —
// the durability loop sketchd runs. Pacing goes through an injectable Clock
// (clock.Manual is the deterministic one) so tests drive checkpoints
// deterministically; the zero Clock is the system clock.
type Checkpointer struct {
	reg   *Registry
	path  string
	every time.Duration
	clock Clock
	onErr func(error)

	stop chan struct{}
	done chan struct{}
}

// NewCheckpointer returns an unstarted periodic checkpointer writing to path
// every `every` on clk (nil = system clock). onErr, if non-nil, receives
// each failed checkpoint's error (the loop keeps running — a transient
// full-disk must not kill durability forever).
func NewCheckpointer(reg *Registry, path string, every time.Duration, clk Clock, onErr func(error)) (*Checkpointer, error) {
	if every <= 0 {
		return nil, fmt.Errorf("%w: checkpoint interval must be > 0", ErrConfig)
	}
	if path == "" {
		return nil, fmt.Errorf("%w: empty checkpoint path", ErrConfig)
	}
	if clk == nil {
		clk = clock.System{}
	}
	return &Checkpointer{
		reg: reg, path: path, every: every, clock: clk, onErr: onErr,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Start launches the checkpoint loop. Call once.
func (c *Checkpointer) Start() {
	go func() {
		defer close(c.done)
		for {
			select {
			case <-c.stop:
				return
			case <-c.clock.After(c.every):
				if err := c.CheckpointNow(); err != nil && c.onErr != nil {
					c.onErr(err)
				}
			}
		}
	}()
}

// Stop terminates the loop and waits for an in-flight checkpoint to finish.
// It does not write a final checkpoint; callers that want one (sketchd's
// shutdown does) call CheckpointNow after Stop — checkpointing works even
// after the registry is closed, capturing the drained exact state.
func (c *Checkpointer) Stop() {
	select {
	case <-c.stop:
	default:
		close(c.stop)
	}
	<-c.done
}

// CheckpointNow writes one checkpoint synchronously, independent of the
// periodic tick.
func (c *Checkpointer) CheckpointNow() error {
	return c.reg.CheckpointFile(c.path)
}
