(** Round-level metrics for the LOCAL runtime, behind a
    zero-cost-when-disabled sink. *)

type round_record = {
  round : int;  (** round index within its runtime invocation *)
  phase : string;  (** caller-set label, e.g. ["coloring"] / ["sweep"] *)
  wall_ns : int;  (** wall-clock nanoseconds spent on the round *)
  stepped : int;  (** nodes that executed their step function *)
  halted_fraction : float;  (** fraction of nodes halted after the round *)
  state_words : int;  (** heap words of a sampled node state (size proxy) *)
  par_width : int;
      (** domains driving the round or sweep; [0] for sequential units
          recorded via {!record_step} *)
}

type sink

val disabled : sink
(** The no-op sink: recording is a single branch, no allocation. *)

val buffer : unit -> sink
(** A fresh accumulating sink; records survive across multiple runtime
    invocations (coloring then sweep, say). *)

val callback : (round_record -> unit) -> sink
(** A streaming sink: every record is handed to the function the moment
    it is produced (the serve layer pushes per-round JSON frames this
    way). Nothing accumulates — {!records} returns [[]]. The callback
    runs on the recording thread; keep it cheap and non-raising. *)

val enabled : sink -> bool
val set_phase : sink -> string -> unit
val phase : sink -> string
val record : sink -> round_record -> unit

val record_step : sink -> round:int -> total:int -> wall_ns:int -> state:'a -> unit
(** Record one *sequential* unit of work (a fixing step, say) in the same
    shape as a runtime round, so serial and distributed runs dump
    comparable JSON: one node stepped, halted fraction
    [round+1 / total], phase taken from the sink. No-op when disabled. *)

val record_sweep :
  sink -> round:int -> total:int -> wall_ns:int -> width:int -> domains:int -> unit
(** Record one color-class fixer sweep: [width] owners fixed their duty
    lists concurrently across [domains] domains. [stepped] carries the
    width and [par_width] the domain count, so parallel efficiency
    (width / domains) can be read off a dump. No-op when disabled. *)

val records : sink -> round_record list
(** Accumulated records, oldest first ([[]] for {!disabled}). *)

val clear : sink -> unit

val now_ns : unit -> int
(** Wall-clock nanoseconds (for the runtime's per-round timing). *)

val state_words : 'a -> int
(** Reachable heap words of a value; [0] for immediates. *)

val record_to_json : round_record -> string
(** One record as a single JSON object (the serve layer's per-round
    streaming frames). *)

val to_json : round_record list -> string
val write_json : string -> round_record list -> unit

val total_wall_ns : round_record list -> int
val pp : Format.formatter -> round_record list -> unit
