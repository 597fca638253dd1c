package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// SyncPolicy selects when the WAL calls fsync.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs every syncEvery (64) appends —
	// the middle ground: a machine crash loses at most one sync window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs after every append: nothing acknowledged is ever
	// lost, at the cost of one fsync per record.
	SyncAlways
	// SyncNever leaves flushing to the OS: fastest, and an in-process
	// crash still loses nothing (writes are unbuffered), but a machine
	// crash may lose any unflushed tail.
	SyncNever
)

// String renders the policy (used by benchmarks and flag parsing).
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return "interval"
	}
}

// ParseSyncPolicy parses the string forms accepted by the -fsync flags.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	case "interval", "":
		return SyncInterval, nil
	}
	return SyncInterval, fmt.Errorf("store: unknown sync policy %q (have always, interval, never)", s)
}

// Options configures a WAL.
type Options struct {
	// Sync is the fsync policy (default SyncInterval).
	Sync SyncPolicy
	// Metrics receives append/fsync latency and byte counts; nil (the
	// default) records nothing.
	Metrics *Metrics
}

// syncEvery is the append count between fsyncs under SyncInterval.
const syncEvery = 64

// Record is one decoded WAL record plus the file offset just past it, so
// callers that layer their own validation on top (e.g. chain linkage) can
// truncate the log back to any record boundary.
type Record struct {
	// Payload is the record content.
	Payload []byte
	// End is the file offset immediately after the record.
	End int64
}

// ErrClosed reports an operation on a closed WAL.
var ErrClosed = errors.New("store: wal closed")

// walFile is what a WAL needs of its file; *os.File is the one product
// implementation, and tests stand in for it to make writes and fsyncs fail.
type walFile interface {
	io.WriteSeeker
	Sync() error
	Truncate(size int64) error
	Close() error
}

// WAL is an append-only, CRC-checked, length-prefixed log. It is safe for
// concurrent use.
type WAL struct {
	mu      sync.Mutex
	f       walFile // guarded by mu
	size    int64   // guarded by mu
	opts    Options
	m       *Metrics // never nil (normalized from opts.Metrics)
	pending int      // appends since the last fsync; guarded by mu
	closed  bool     // guarded by mu
	// broken is the error of a refused append the log could not be cut
	// back from: its end is unknown, so every later append returns it.
	broken error // guarded by mu
}

// OpenWAL opens (creating if needed) the log at path, decodes every
// complete record, truncates any torn tail, and returns the WAL
// positioned for appending plus the decoded records.
func OpenWAL(path string, opts Options) (*WAL, []Record, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open wal: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, errors.Join(fmt.Errorf("store: read wal: %w", err), f.Close())
	}

	var records []Record
	offset := int64(0)
	for int(offset) < len(raw) {
		payload, consumed, err := DecodeRecord(raw[offset:])
		if err != nil {
			// Torn or corrupt tail: everything before offset is intact,
			// everything from offset on is unrecoverable — drop it.
			break
		}
		offset += int64(consumed)
		records = append(records, Record{Payload: payload, End: offset})
	}
	if int(offset) < len(raw) {
		if err := f.Truncate(offset); err != nil {
			return nil, nil, errors.Join(fmt.Errorf("store: truncate torn tail: %w", err), f.Close())
		}
	}
	if _, err := f.Seek(offset, 0); err != nil {
		return nil, nil, errors.Join(fmt.Errorf("store: seek wal: %w", err), f.Close())
	}
	w := &WAL{f: f, size: offset, opts: opts}
	w.m = opts.Metrics.orNoop()
	return w, records, nil
}

// Size returns the current log size in bytes.
func (w *WAL) Size() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size
}

// Append writes one record and applies the fsync policy. The payload is
// durable against an in-process crash when Append returns; durability
// against a machine crash depends on the policy. A payload above
// MaxRecordSize is refused before anything is written: OpenWAL would
// read it as corruption and drop it with every record after it.
func (w *WAL) Append(payload []byte) error { return w.append(nil, payload) }

// AppendFrame is Append for a caller that encoded its payload at
// frame[RecordHeaderSize:] and left the bytes before it free: the header
// is filled in there and the frame written as it stands, so a large
// record is not copied to be framed.
func (w *WAL) AppendFrame(frame []byte) error {
	return w.append(frame, frame[RecordHeaderSize:])
}

// append frames payload — in place when frame already holds it, in a
// fresh buffer when frame is nil — and writes the frame in one write.
// A refused append leaves the log as it was: a short write or a failed
// fsync is cut back off the file, so the next record lands where this
// one began.
func (w *WAL) append(frame, payload []byte) error {
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("store: record of %d bytes exceeds MaxRecordSize (%d bytes)", len(payload), MaxRecordSize)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.broken != nil {
		return w.broken
	}
	tm := w.m.AppendLatency.Start()
	defer tm.Stop()
	if frame == nil {
		frame = make([]byte, RecordHeaderSize+len(payload))
		copy(frame[RecordHeaderSize:], payload)
	}
	hdr := recordHeader(payload)
	copy(frame, hdr[:])
	if _, err := w.f.Write(frame); err != nil {
		return w.rollbackLocked(fmt.Errorf("store: append: %w", err))
	}
	if w.opts.Sync == SyncAlways || (w.opts.Sync == SyncInterval && w.pending+1 >= syncEvery) {
		if err := w.syncLocked(); err != nil {
			return w.rollbackLocked(err)
		}
	} else {
		w.pending++
	}
	w.size += int64(len(frame))
	w.m.AppendedBytes.Add(uint64(len(frame)))
	return nil
}

// rollbackLocked cuts the log back to its last acknowledged record after
// a refused append and returns err. If the cut fails too, the log's end
// is unknown, and every later append returns err with the cut's error.
func (w *WAL) rollbackLocked(err error) error {
	terr := w.f.Truncate(w.size)
	if terr == nil {
		_, terr = w.f.Seek(w.size, io.SeekStart)
	}
	if terr != nil {
		w.broken = errors.Join(err, terr)
		return w.broken
	}
	return err
}

func (w *WAL) syncLocked() error {
	tm := w.m.FsyncLatency.Start()
	err := w.f.Sync()
	tm.Stop()
	if err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	w.m.Fsyncs.Inc()
	w.pending = 0
	return nil
}

// TruncateTo cuts the log back to a record boundary previously reported
// in a Record.End (callers use it to discard records that decode but fail
// higher-level validation).
func (w *WAL) TruncateTo(offset int64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if offset < 0 || offset > w.size {
		return fmt.Errorf("store: truncate offset %d outside [0,%d]", offset, w.size)
	}
	if err := w.f.Truncate(offset); err != nil {
		return fmt.Errorf("store: truncate: %w", err)
	}
	if _, err := w.f.Seek(offset, 0); err != nil {
		return fmt.Errorf("store: seek: %w", err)
	}
	w.size = offset
	return nil
}

// Close flushes and closes the log. Close is idempotent.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	if syncErr != nil {
		return fmt.Errorf("store: close sync: %w", syncErr)
	}
	return closeErr
}

// Abandon closes the log WITHOUT flushing, modelling a crash: whatever
// the OS has not persisted is at the mercy of the page cache. Fault
// injection uses it; normal shutdown paths must use Close.
func (w *WAL) Abandon() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	return w.f.Close()
}
