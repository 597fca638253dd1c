// Command solid-server runs a standalone multi-pod Solid host with Web
// Access Control, the storage substrate of the usage-control
// architecture. One process serves any number of pods behind a single
// handler, each mounted at /pods/{owner}/.
//
// Usage:
//
//	solid-server [-addr :8080] [-base http://localhost:8080]
//	             [-owners alice,bob] [-data-dir DIR] [-fsync interval]
//	             [-debug-addr :6061]
//
// -debug-addr starts a second, private HTTP server with the
// observability endpoints: GET /metrics (Prometheus text exposition of
// the host's request-latency, auth-cache, and replay instruments),
// /debug/vars, and the /debug/pprof/ suite. Without the flag no
// instrument is live and nothing listens.
//
// For every name in -owners the server provisions a pod whose root ACL
// grants that owner full control, registers the owner's signing key in
// the agent directory, and prints the key so a client (e.g.
// internal/solid.Client) can authenticate. A public demo resource is
// seeded under /pods/{owner}/public/hello.txt.
//
// With -data-dir each pod journals its content (resources + ACLs) under
// DIR/pods/<owner>/ and the owner keys persist under DIR/keys/, so a
// restarted server serves the exact pod state — ETags and ACL
// generations included — it served before. SIGINT/SIGTERM drain the
// HTTP server and flush every pod store before exit.
package main

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/cryptoutil"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/solid"
	"repro/internal/store"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "solid-server:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("solid-server", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	base := fs.String("base", "", "public base URL (default http://localhost<addr>)")
	owners := fs.String("owners", "alice", "comma-separated pod owner names, one pod each")
	dataDir := fs.String("data-dir", "", "durable storage root (empty = in-memory; pod op logs under <dir>/pods/, owner keys under <dir>/keys/)")
	fsync := fs.String("fsync", "interval", "pod op-log fsync policy: always, interval, never")
	debugAddr := fs.String("debug-addr", "", "observability listen address (empty = disabled; GET /metrics, /debug/vars, /debug/pprof/)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	baseURL := *base
	if baseURL == "" {
		if strings.HasPrefix(*addr, ":") {
			baseURL = "http://localhost" + *addr
		} else {
			baseURL = "http://" + *addr
		}
	}
	syncPolicy, err := store.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}

	clock := simclock.Real{}
	dir := solid.NewMapDirectory()
	host := solid.NewHost()
	// Wire instruments before any pod is mounted: Mount hands the
	// metrics handle to each server and pod. With the flag unset every
	// hook stays no-op.
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		host.SetMetrics(solid.NewMetrics(reg))
	}
	pods, err := provisionPods(host, dir, baseURL, strings.Split(*owners, ","), clock, *dataDir, store.Options{Sync: syncPolicy})
	if err != nil {
		return err
	}
	if len(pods) == 0 {
		return fmt.Errorf("no pod owners given")
	}
	// Announce pods in -owners order.
	for _, p := range pods {
		podBase := baseURL + solid.PodRoutePrefix + p.name
		log.Printf("pod %-12s owner %s", p.name, ownerWebID(baseURL, p.name))
		log.Printf("  owner key (hex): %s", hex.EncodeToString(p.key.PublicBytes()))
		log.Printf("  try GET %s/public/hello.txt", podBase)
	}

	log.Printf("serving %d pod(s) on %s under %s{owner}/", host.Len(), *addr, solid.PodRoutePrefix)
	srv := &http.Server{Addr: *addr, Handler: host, ReadHeaderTimeout: 5 * time.Second}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	// Observability rides on its own private server, never on the pod
	// handler's address.
	var debugSrv *http.Server
	if reg != nil {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           obs.DebugMux(reg, nil),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("debug server: %v", err)
			}
		}()
		log.Printf("observability on %s (GET /metrics, /debug/vars, /debug/pprof/)", *debugAddr)
	}
	shutdownDebug := func(ctx context.Context) {
		if debugSrv == nil {
			return
		}
		if err := debugSrv.Shutdown(ctx); err != nil {
			log.Printf("debug shutdown: %v", err)
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		log.Printf("received %s, shutting down", s)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		shutdownDebug(ctx)
		return closePods(pods)
	case err := <-errCh:
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDebug(ctx)
		closeErr := closePods(pods)
		if errors.Is(err, http.ErrServerClosed) {
			return closeErr
		}
		return errors.Join(err, closeErr)
	}
}

// ownerWebID derives the WebID minted for a pod owner name.
func ownerWebID(baseURL, name string) solid.WebID {
	return solid.WebID(baseURL + solid.PodRoutePrefix + name + "/profile#" + name)
}

// ownerPod is one provisioned pod: its name, the pod (whose store the
// caller closes on shutdown) and its owner's signing key.
type ownerPod struct {
	name string
	pod  *solid.Pod
	key  *cryptoutil.KeyPair
}

// provisionPods builds one pod per owner name and mounts it on the host
// (see provisionPod). It returns the pods in input order, blank entries
// skipped; on error it closes the ones it opened.
func provisionPods(host *solid.Host, dir *solid.MapDirectory, baseURL string, names []string, clock simclock.Clock, dataDir string, opts store.Options) ([]ownerPod, error) {
	var pods []ownerPod
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, err := provisionPod(host, dir, baseURL, name, clock, dataDir, opts)
		if err != nil {
			return nil, errors.Join(err, closePods(pods))
		}
		pods = append(pods, p)
	}
	return pods, nil
}

// provisionPod builds the named owner's pod and mounts its server: a
// signing key registered in the agent directory (persisted under
// dataDir/keys/<name>.der when dataDir is set, so a restart keeps the
// owner identity), a root ACL granting the owner full control, and a
// public demo resource. With dataDir the pod is durable under
// dataDir/pods/<name>/ (opts is its op log's fsync policy); a pod
// restored from its store is not re-seeded — its recovered content is
// authoritative. On error the pod's store is closed.
func provisionPod(host *solid.Host, dir *solid.MapDirectory, baseURL, name string, clock simclock.Clock, dataDir string, opts store.Options) (_ ownerPod, err error) {
	// Check the name before anything is written under it: it names the
	// pod's directory and the owner's key file.
	if !solid.ValidPodName(name) {
		return ownerPod{}, fmt.Errorf("%w: %q", solid.ErrBadPodName, name)
	}
	ownerID := ownerWebID(baseURL, name)
	podBase := baseURL + solid.PodRoutePrefix + name
	var pod *solid.Pod
	if dataDir == "" {
		pod = solid.NewPod(ownerID, podBase)
	} else if pod, err = solid.OpenPod(ownerID, podBase, filepath.Join(dataDir, "pods", name), opts); err != nil {
		return ownerPod{}, err
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, pod.CloseStore())
		}
	}()
	if err := host.Mount(name, solid.NewServer(pod, dir, clock, nil)); err != nil {
		return ownerPod{}, err
	}
	key, err := loadOrCreateOwnerKey(dataDir, name)
	if err != nil {
		return ownerPod{}, err
	}
	dir.Register(ownerID, key.PublicBytes())
	if count, _ := pod.Stats(); count == 0 {
		// Fresh pod: seed the demo resource and its public ACL. A pod
		// restored from disk keeps exactly what it had.
		if err := pod.Put(ownerID, "/public/hello.txt", "text/plain",
			[]byte("hello from the Solid pod of "+name+"\n"), clock.Now()); err != nil {
			return ownerPod{}, err
		}
		acl := solid.NewACL(ownerID, "/public/")
		acl.GrantPublic("world", "/public/", true, solid.ModeRead)
		if err := pod.SetACL(ownerID, "/public/", acl); err != nil {
			return ownerPod{}, err
		}
	}
	return ownerPod{name: name, pod: pod, key: key}, nil
}

// closePods flushes and closes every pod's durable store (a no-op for
// in-memory pods), returning every error met.
func closePods(pods []ownerPod) error {
	var errs []error
	for _, p := range pods {
		errs = append(errs, p.pod.CloseStore())
	}
	return errors.Join(errs...)
}

// loadOrCreateOwnerKey returns the owner's signing key, persisted under
// the data dir for durable deployments. Callers must have checked the
// name with solid.ValidPodName before a file is created for it.
func loadOrCreateOwnerKey(dataDir, name string) (*cryptoutil.KeyPair, error) {
	if dataDir == "" {
		return cryptoutil.GenerateKey(nil)
	}
	return cryptoutil.LoadOrCreateKeyFile(filepath.Join(dataDir, "keys", name+".der"))
}
