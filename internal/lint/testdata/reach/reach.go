// Package main is the reach fixture: which methods an interface call can
// dispatch to. TestReachDispatchNeedsTheWholeInterface lists what the walk
// from main must reach.
package main

import "io"

// syncer is called through in main.
type syncer interface {
	Sync() error
	Close() error
}

// file has every method of syncer: both are reached.
type file struct{}

func (*file) Sync() error  { return nil }
func (*file) Close() error { return nil }

// journal has a Sync() error but no Close, so it implements no interface
// that declares Sync: its Sync is not reached.
type journal struct{}

func (journal) Sync() error { return nil }

// counter's Sync has another result type than syncer's, so it is not
// reached; its Close makes it an io.Closer, so that is.
type counter struct{}

func (counter) Sync() int    { return 0 }
func (counter) Close() error { return nil }

var _ io.Closer = counter{}

func main() {
	var s syncer = &file{}
	_ = s.Sync()
	_ = journal{}
	_ = counter{}
}
