package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// basePort fixes the daemons' listen ports. Ring placement hashes the
// listen address, so fixed addresses give every run the same key
// placement and therefore the same RPC fan-out per query.
const basePort = 27431

const callTimeout = 30 * time.Second

// fleetOpts selects how the in-process daemons are wired.
type fleetOpts struct {
	// dataRoot, when set, makes every daemon durable (fsync=batch) with
	// its data directory under it.
	dataRoot string
	// rec, when set, wraps every daemon's and the client's transport so
	// the traced run can record spans.
	rec *recorder
}

type daemon struct {
	srv *cluster.Server
	tcp *transport.TCP
	dur *durable.Store
}

// fleet is nodes cluster daemons in this process, each on its own TCP
// transport and loopback port, plus one thin client over them.
type fleet struct {
	daemons []*daemon
	addrs   []string // join order
	ctr     *transport.TCP
	client  *cluster.Client
}

// bootDaemon wires one daemon the way cmd/hdknode does: default search
// sizing, the transport and durable store instrumented onto the
// server's registry, durability enabled before the daemon joins.
func bootDaemon(addr string, i int, o fleetOpts) (*daemon, error) {
	d := &daemon{tcp: transport.NewTCPConfig(transport.TCPConfig{CallTimeout: callTimeout})}
	if o.dataRoot != "" {
		dur, err := durable.Open(filepath.Join(o.dataRoot, fmt.Sprintf("n%d", i)), durable.Options{Fsync: durable.SyncBatch})
		if err != nil {
			d.tcp.Close()
			return nil, err
		}
		d.dur = dur
	}
	var tr transport.Transport = d.tcp
	if o.rec != nil {
		tr = &tracedTransport{Transport: d.tcp, node: addr, rec: o.rec}
	}
	srv, err := cluster.NewServer(tr, addr, replicas)
	if err != nil {
		d.close()
		return nil, err
	}
	d.srv = srv
	srv.ConfigureSearch(0, -1, -1)
	reg := srv.Metrics()
	d.tcp.Instrument(reg)
	if d.dur != nil {
		d.dur.Instrument(reg)
		if err := srv.EnableDurability(d.dur); err != nil {
			d.close()
			return nil, err
		}
	}
	return d, nil
}

func (d *daemon) close() {
	if d.srv != nil {
		d.srv.Shutdown()
	}
	d.tcp.Close()
	if d.dur != nil {
		d.dur.Close()
	}
}

func bootFleet(o fleetOpts) (*fleet, error) {
	f := &fleet{}
	for i := 0; i < nodes; i++ {
		d, err := bootDaemon(fmt.Sprintf("127.0.0.1:%d", basePort+i), i, o)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("boot daemon %d: %w", i, err)
		}
		f.daemons = append(f.daemons, d)
		if i > 0 {
			if err := d.srv.Join(f.addrs[0]); err != nil {
				f.close()
				return nil, fmt.Errorf("join daemon %d: %w", i, err)
			}
		}
		f.addrs = append(f.addrs, d.srv.Addr())
	}
	f.ctr = transport.NewTCPConfig(transport.TCPConfig{CallTimeout: callTimeout})
	var tr transport.Transport = f.ctr
	if o.rec != nil {
		tr = &tracedTransport{Transport: f.ctr, node: "client", rec: o.rec}
	}
	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: f.addrs})
	if err != nil {
		f.close()
		return nil, err
	}
	f.client = c
	return f, nil
}

// close stops the client and every daemon. Durable stores are closed
// without sealing a snapshot: the data directories are thrown away.
func (f *fleet) close() {
	if f.ctr != nil {
		f.ctr.Close()
	}
	for _, d := range f.daemons {
		d.close()
	}
}

// newDataRoot makes a fresh directory for durable daemons under the
// benchmark's scratch directory in the working tree.
func newDataRoot(tag string) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench-data", fmt.Sprintf("%d-%s", os.Getpid(), tag))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
