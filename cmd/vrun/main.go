// Command vrun is the mpirun of this MPICH-V2 reproduction (paper
// §4.7): it reads a program file describing the machines of the run —
// computing nodes, event logger, checkpoint server, checkpoint
// scheduler — launches every role as an OS process over real TCP,
// monitors them, and re-launches crashed ones with the recovery
// protocol.
//
// Usage:
//
//	vrun -pg program.txt -app tokenring
//
// where program.txt looks like:
//
//	el 127.0.0.1:9000
//	cs 127.0.0.1:9001
//	sc 127.0.0.1:9002
//	cn 127.0.0.1:9100
//	cn 127.0.0.1:9101
//	cn 127.0.0.1:9102
//
// Kill a worker process mid-run (kill -9 <pid>; the "spawned" log line
// names each worker's pid) to watch the supervisor restart it and the
// protocol replay its messages. Available apps: vrun -list.
//
// Every worker is this binary re-executed with its node in the
// environment. To start one node by hand:
//
//	MPICHV_SERVE=<id> MPICHV_PG=<file> MPICHV_APP=<app> MPICHV_INC=<n> vrun
//
// where n counts the node's earlier launches (0 for the first), plus
// MPICHV_RESTARTED=1 to recover it from its logs.
package main

import (
	"flag"
	"fmt"
	"os"

	"mpichv/internal/apps"
	"mpichv/internal/deploy"
)

func main() {
	// Supervisor-spawned workers re-exec this binary with MPICHV_SERVE
	// set; MaybeServe takes over and never returns.
	deploy.MaybeServe(func(name string) (deploy.App, bool) {
		a, ok := apps.Get(name)
		return deploy.App(a), ok
	})

	var (
		pgPath  = flag.String("pg", "", "program file (required)")
		appName = flag.String("app", "tokenring", "registered MPI program to run")
		list    = flag.Bool("list", false, "list registered apps")
	)
	flag.Parse()

	if *list {
		for _, n := range apps.Names() {
			fmt.Println(n)
		}
		return
	}
	if *pgPath == "" {
		fmt.Fprintln(os.Stderr, "vrun: -pg program file is required")
		flag.Usage()
		os.Exit(2)
	}
	if _, ok := apps.Get(*appName); !ok {
		fatal(fmt.Errorf("unknown app %q (try -list)", *appName))
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	sup, err := deploy.StartSupervisor(deploy.SupervisorConfig{
		ProgramPath: *pgPath,
		Exe:         exe,
		AppName:     *appName,
		Log:         os.Stdout,
	})
	if err != nil {
		fatal(err)
	}
	<-sup.Done()
	sup.Stop()
	if err := sup.Err(); err != nil {
		fatal(err)
	}
	fmt.Println("vrun: all ranks finalized; cleaning the execution pool")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vrun:", err)
	os.Exit(1)
}
