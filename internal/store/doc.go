// Package store is the durability substrate shared by the chain and pod
// layers: an append-only, CRC-checked, length-prefixed write-ahead log
// plus an atomic snapshot writer/loader.
//
// # Write-ahead log
//
// A WAL file is a sequence of records, each encoded as
//
//	[4-byte little-endian payload length][4-byte CRC-32 (IEEE) of payload][payload]
//
// Appends go straight to the file descriptor (no userspace buffering), so
// an in-process crash loses nothing that Append returned for; the fsync
// policy (SyncPolicy) decides what a machine crash may lose. On open the
// log is scanned front to back and the first undecodable record — a
// partial length prefix, a partial payload, or a CRC mismatch — marks the
// torn tail: everything from that offset on is truncated away and the log
// resumes after the last complete record. A record larger than
// MaxRecordSize is treated as corruption, never allocated.
//
// # Snapshots
//
// A snapshot is one CRC-framed payload written to "snap-<seq>.snap" via a
// temp file and an atomic rename, so a crash mid-write never leaves a
// half-visible snapshot. Snapshots bound recovery replay: a reader loads
// the newest decodable snapshot whose sequence number does not exceed the
// log's head and replays only the records past it. A corrupt snapshot is
// skipped in favour of an older one (or a full replay from the start of
// the log), so snapshots are strictly an optimization — recovery
// correctness never depends on them.
//
// The package has no opinion about payload contents; the chain layer
// stores sealed blocks with state diffs, the pod layer stores resource
// operations. Both snapshot by the one rule in SnapshotDue.
package store
