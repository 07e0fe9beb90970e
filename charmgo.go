// Package charmgo is a Go reproduction of the migratable-objects parallel
// programming model described in "Parallel Programming with Migratable
// Objects: Charm++ in Practice" (Acun et al., SC 2014).
//
// Programs are written as collections of chares — migratable C++-style
// objects, here ordinary Go structs with a Pup serialization method —
// grouped into indexed chare arrays. Chares communicate through
// asynchronous entry-method invocations and are scheduled message-driven:
// a chare runs only when a message arrives for it, and the runtime is free
// to migrate chares between processing elements at any load-balancing
// point. On these three attributes (over-decomposition, asynchronous
// message-driven execution, migratability) the runtime provides the
// adaptive features the paper evaluates: a load-balancing strategy suite,
// checkpoint/restart and double in-memory fault tolerance, thermal-aware
// DVFS, malleable shrink/expand, an introspective control system, the
// TRAM fine-grained message aggregator, and Adaptive MPI.
//
// Execution happens on a virtual machine: a deterministic discrete-event
// simulation of a parallel computer (nodes, PEs, an α-β-hop network,
// caches, DVFS and a thermal model), so cluster-scale behaviour is
// reproducible on one host while application code performs its real
// computation. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the paper-figure reproductions.
//
// # Quick start
//
//	m := charmgo.NewMachine(machine.Stampede(64))
//	rt := charmgo.NewRuntime(m)
//	arr := rt.DeclareArray("hello", factory, handlers, charmgo.ArrayOpts{})
//	arr.Insert(charmgo.Idx1(0), &myChare{})
//	arr.Send(charmgo.Idx1(0), epGreet, "world")
//	rt.Run()
//
// The subpackages under internal/apps contain full mini-applications
// (LeanMD, AMR3D, Barnes-Hut, LULESH-on-AMPI, PDES/PHOLD, Stencil2D,
// HistSort) built on this API; the examples directory shows runnable
// programs.
package charmgo

import (
	"charmgo/internal/charm"
	"charmgo/internal/des"
	"charmgo/internal/machine"
)

// Core type aliases: the stable public façade over the runtime packages.
type (
	// Runtime is the adaptive runtime system.
	Runtime = charm.Runtime
	// Array is a chare array: an indexed collection of migratable
	// objects.
	Array = charm.Array
	// ArrayOpts configures a chare array at declaration.
	ArrayOpts = charm.ArrayOpts
	// Chare is the interface chare state implements (PUP serializable).
	Chare = charm.Chare
	// Ctx is the execution context passed to entry methods.
	Ctx = charm.Ctx
	// EP identifies an entry method.
	EP = charm.EP
	// Handler is an entry-method body.
	Handler = charm.Handler
	// Index identifies an element within a chare array.
	Index = charm.Index
	// SendOpts tunes one send (payload size, priority).
	SendOpts = charm.SendOpts
	// Callback names a continuation for collective operations.
	Callback = charm.Callback
	// Reducer combines reduction contributions.
	Reducer = charm.Reducer
	// Strategy is a load-balancing strategy.
	Strategy = charm.Strategy
	// LBObject and LBPE form the instrumented view strategies receive.
	LBObject = charm.LBObject
	LBPE     = charm.LBPE
	// Migration is one strategy decision.
	Migration = charm.Migration
	// Machine is the virtual parallel machine.
	Machine = machine.Machine
	// MachineConfig describes a machine.
	MachineConfig = machine.Config
	// Time is virtual time in seconds.
	Time = des.Time
)

// NewMachine instantiates a virtual machine from a configuration; the
// machine package provides named configurations (Stampede, Vesta,
// BlueWaters, Hopper, Cloud, ...).
func NewMachine(cfg machine.Config) *Machine { return machine.New(cfg) }

// NewRuntime creates a runtime over a machine.
func NewRuntime(m *Machine) *Runtime { return charm.New(m) }

// Index constructors.
var (
	Idx1             = charm.Idx1
	Idx2             = charm.Idx2
	Idx3             = charm.Idx3
	Idx6             = charm.Idx6
	BitVec           = charm.BitVec
	BitVecFromCoords = charm.BitVecFromCoords
)

// Callback constructors.
var (
	CallbackSend  = charm.CallbackSend
	CallbackBcast = charm.CallbackBcast
	CallbackFunc  = charm.CallbackFunc
)

// Built-in reducers.
var (
	SumF64    = charm.SumF64
	MinF64    = charm.MinF64
	MaxF64    = charm.MaxF64
	SumI64    = charm.SumI64
	MinI64    = charm.MinI64
	MaxI64    = charm.MaxI64
	AndB      = charm.AndB
	OrB       = charm.OrB
	SumVecF64 = charm.SumVecF64
)
