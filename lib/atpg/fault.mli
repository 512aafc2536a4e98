(** Single stuck-at fault model on gate output nets. *)

open Socet_netlist

type t = { f_net : Netlist.net; f_stuck : bool }
(** The net is permanently stuck at [f_stuck]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val diff : t list -> t list -> t list
(** [diff xs drop] is [xs] without the faults of [drop], order preserved;
    linear in the lengths of both lists. *)

val name : Netlist.t -> t -> string
(** e.g. "IR.3/sa0". *)

val all : Netlist.t -> t list
(** Both polarities on every net except constants.  This is the fault
    universe used for all coverage numbers. *)

val collapse : Netlist.t -> t list
(** Structural equivalence collapsing: a fault on the output of a buffer or
    inverter whose input has no other fanout is equivalent to a fault on
    that input net and is dropped (with the polarity flip for inverters
    accounted for).  Sound but deliberately conservative. *)
