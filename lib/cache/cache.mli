(** Content-addressed persistent result cache — the engine-facing facade
    (DESIGN.md §16).

    The one cached artifact is a core's ATPG result: [Podem.run] keys it
    by the netlist's {!Socet_netlist.Structhash} plus the engine
    parameters and calls {!memo} under the [podem1] namespace.
    Chip-level planning (routing, version ladders, TAM packing) is cheap
    graph work and is always recomputed.  The CLI and the serve
    dispatcher decide {e whether} a store is active ([--cache DIR], the
    wire protocol's cache field).  With no active store every entry
    point is a no-op, so un-cached runs pay one atomic load per hook.

    Contract: a cached artifact is byte-identical to what the engine
    would recompute — namespaces embed a format version, keys pin every
    input that can influence the result, and the replay oracles
    ({!Socet_core.Replay}, {!Socet_tam.Replay}) check every plan built
    on cached test sets.  Observability: [cache.{hits,misses,stores,
    evictions}] counters and the [cache.bytes] gauge. *)

val set_active : Store.t option -> unit
val active_store : unit -> Store.t option
val enabled : unit -> bool

val with_store : Store.t option -> (unit -> 'a) -> 'a
(** Run the thunk with the given store active, restoring the previous
    one after — the serve dispatcher's per-request scoping. *)

val open_dir :
  ?limit_bytes:int -> string -> (Store.t, Socet_util.Error.t) result

val activate_dir :
  ?limit_bytes:int -> string -> (unit, Socet_util.Error.t) result
(** {!open_dir} + {!set_active}: the CLI's [--cache DIR] validation
    (create-if-missing, reject unwritable — structured error, exit 3). *)

val find : ns:string -> key:string -> 'a option
(** Marshal-typed lookup in the active store; [None] when no store is
    active, on absence, or on any integrity failure.  Type safety is by
    namespace convention: the [ns] string embeds a format version bumped
    with the marshaled type, so stale stores miss instead of decoding
    garbage. *)

val store : ns:string -> key:string -> 'a -> unit
(** Store a plain-data value (no closures or custom blocks) in the
    active store; a no-op without one. *)

val memo : ns:string -> key:string -> (unit -> 'a) -> 'a
(** [find] or compute-and-[store]. *)

val scoreboard : unit -> (string * int * int) list
(** Per-namespace [(ns, hits, misses)] since the last reset, sorted —
    the raw material of [socet diff-test]'s reused-vs-recomputed
    report. *)

val reset_scoreboard : unit -> unit

val bytes_used : unit -> int
(** Tracked size of the active store (0 without one). *)
