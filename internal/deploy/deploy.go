// Package deploy runs an MPICH-V2 system as real OS processes over TCP:
// the paper's deployment mode (§4.7). A program file — the equivalent
// of MPICH's P4PGFILE — lists every machine with its role (computing
// node, event logger, checkpoint server, checkpoint scheduler) and
// address. The Supervisor plays the dispatcher for cmd/vrun and the soak:
// it launches the workers, watches them ("a socket disconnection is
// considered as a trusty fault detector" — here, a worker process exiting
// before it finished), and re-launches crashed nodes with the recovery
// flag and their next incarnation.
package deploy

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"mpichv/internal/mpi"
)

// Role is a node's function in the system.
type Role string

// The four roles of a program file.
const (
	RoleCN    Role = "cn"
	RoleEL    Role = "el"
	RoleCS    Role = "cs"
	RoleSched Role = "sc"
)

// Node ids per role (computing nodes use their rank). Service roles may
// be replicated: the i-th node of a role gets the role's base id plus i,
// so every replica has a distinct id and address-map entry. Computing
// nodes therefore must number below ELID, and a role's replica count is
// bounded by the gap to the next base (and by the daemon's 64-bit
// quorum ack masks).
const (
	ELID    = 1000 // event-logger replicas: ELID, ELID+1, ...
	CSID    = 1100 // checkpoint-server replicas: CSID, CSID+1, ...
	SchedID = 1200 // checkpoint scheduler (single)

	// MaxReplicas caps a service role's replica group: the daemon
	// tracks quorum acks in a 64-bit mask.
	MaxReplicas = 64
)

// Node is one line of the program file.
type Node struct {
	ID   int
	Role Role
	// Addr is the advertised address peers dial.
	Addr string
	// Bind, when non-empty, is the address the node actually listens
	// on. The split exists for fault injection: a ChaosProxy owns the
	// advertised address and forwards to the bind address, so every
	// inbound byte crosses the injector. Empty means listen on Addr.
	Bind string
}

// Program is a parsed program file.
type Program struct {
	Nodes []Node
}

// Parse reads a program file: one "role address [bind]" line per node,
// '#' comments allowed. Computing nodes get ranks in order of
// appearance; service nodes get their fixed ids. The optional third
// field is a listen address differing from the advertised one (see
// Node.Bind — the proxy-interposition hook).
func Parse(r io.Reader) (*Program, error) {
	p := &Program{}
	sc := bufio.NewScanner(r)
	rank := 0
	els, css, scs := 0, 0, 0
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 && len(fields) != 3 {
			return nil, fmt.Errorf("deploy: line %d: want \"role address [bind]\", got %q", line, text)
		}
		n := Node{Role: Role(fields[0]), Addr: fields[1]}
		if len(fields) == 3 {
			n.Bind = fields[2]
		}
		switch n.Role {
		case RoleCN:
			if rank >= ELID {
				return nil, fmt.Errorf("deploy: line %d: more than %d computing nodes", line, ELID)
			}
			n.ID = rank
			rank++
		case RoleEL:
			if els >= MaxReplicas {
				return nil, fmt.Errorf("deploy: line %d: more than %d event-logger replicas", line, MaxReplicas)
			}
			n.ID = ELID + els
			els++
		case RoleCS:
			if css >= MaxReplicas {
				return nil, fmt.Errorf("deploy: line %d: more than %d checkpoint-server replicas", line, MaxReplicas)
			}
			n.ID = CSID + css
			css++
		case RoleSched:
			if scs > 0 {
				return nil, fmt.Errorf("deploy: line %d: more than one checkpoint scheduler", line)
			}
			n.ID = SchedID
			scs++
		default:
			return nil, fmt.Errorf("deploy: line %d: unknown role %q", line, fields[0])
		}
		p.Nodes = append(p.Nodes, n)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(p.CNs()) == 0 {
		return nil, fmt.Errorf("deploy: program file has no computing nodes")
	}
	if _, ok := p.Find(RoleEL); !ok {
		return nil, fmt.Errorf("deploy: program file has no event logger")
	}
	return p, nil
}

// ParseFile parses the program file at path.
func ParseFile(path string) (*Program, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Parse(f)
}

// CNs returns the computing nodes in rank order.
func (p *Program) CNs() []Node {
	var out []Node
	for _, n := range p.Nodes {
		if n.Role == RoleCN {
			out = append(out, n)
		}
	}
	return out
}

// Find returns the first node with the given role.
func (p *Program) Find(role Role) (Node, bool) {
	for _, n := range p.Nodes {
		if n.Role == role {
			return n, true
		}
	}
	return Node{}, false
}

// OfRole returns every node with the given role, in program-file order
// (for service roles that is replica-id order).
func (p *Program) OfRole(role Role) []Node {
	var out []Node
	for _, n := range p.Nodes {
		if n.Role == role {
			out = append(out, n)
		}
	}
	return out
}

// IDsOfRole returns the node ids of a role, in replica order.
func (p *Program) IDsOfRole(role Role) []int {
	var out []int
	for _, n := range p.Nodes {
		if n.Role == role {
			out = append(out, n.ID)
		}
	}
	return out
}

// RoleOf maps a node id back to its role ("" when the id is not in the
// program).
func (p *Program) RoleOf(id int) Role {
	for _, n := range p.Nodes {
		if n.ID == id {
			return n.Role
		}
	}
	return ""
}

// AddrMap returns the id → address map for the TCP fabric.
func (p *Program) AddrMap() map[int]string {
	m := make(map[int]string, len(p.Nodes))
	for _, n := range p.Nodes {
		m[n.ID] = n.Addr
	}
	return m
}

// DoneMarker is printed by a computing-node worker when its MPI program
// finalized; the supervisor uses it to distinguish completion from a
// crash.
const DoneMarker = "VRUN-RANK-DONE"

// App is a runnable MPI program.
type App func(p *mpi.Proc)
