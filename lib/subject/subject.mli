(** Subject graphs: NAND2-INV decompositions of Boolean networks.

    The subject graph is the canonical matching substrate of
    Keutzer-style technology mapping. Nodes are primary inputs,
    two-input NANDs or inverters; construction performs structural
    hashing (identical NANDs are shared) and inverter-pair
    cancellation, and folds constants away. Latch boundaries become
    pseudo-PIs (latch outputs) and pseudo-POs (latch inputs) so the
    combinational core can be mapped, as in the paper's Section 4. *)

open Dagmap_logic

type kind =
  | Spi                 (** primary input or latch output *)
  | Snand of int * int  (** two-input NAND of earlier nodes *)
  | Sinv of int         (** inverter over an earlier node *)

type output = {
  out_name : string;
  out_node : int;       (** subject node driving this output *)
}

type t = private {
  kinds : kind array;          (** indices are topologically ordered *)
  names : string array;        (** PI names; synthesized for internal *)
  outputs : output list;       (** POs, then latch data inputs *)
  const_outputs : (string * bool) list;
      (** outputs whose function folded to a constant *)
  num_pis : int;
  n_latches : int;             (** trailing [n_latches] outputs and PIs
                                   are latch boundaries, in order *)
}

type style =
  | Balanced    (** n-ary AND/OR chains reduced as balanced trees *)
  | Left_skew   (** ((a op b) op c) op d — chains *)
  | Right_skew  (** a op (b op (c op d)) *)

val of_network : ?style:style -> Network.t -> t
(** Decompose every logic node into NAND2-INV form (De Morgan on the
    node expressions, XOR in SOP form). [style] (default {!Balanced})
    chooses how n-ary AND/OR chains in the node expressions are
    re-associated — the paper (§4, discussing Lehman et al.) notes
    that mapping optimality is relative to this arbitrary initial
    choice; the harness measures the sensitivity. Subject PI order is
    the network's PI declaration order followed by latch outputs in
    latch order. *)

val of_parts :
  kinds:kind array ->
  names:string array ->
  outputs:output list ->
  const_outputs:(string * bool) list ->
  num_pis:int ->
  n_latches:int ->
  t
(** Assemble a subject graph from pre-built flat parts (used by the
    arena conversion boundary in [Dagmap_core.Arena]). Validates the
    topological fanin invariant (every fanin strictly precedes its
    node) and the PI count; raises [Invalid_argument] otherwise. *)

val restyle : style -> Bexpr.t -> Bexpr.t
(** Re-associate n-ary AND/OR chains in an expression per the style;
    exposed so alternate decomposition backends share it. *)

(** Builder operations the De Morgan decomposition needs; implemented
    by {!Builder} and by arena builders. *)
module type BUILD_OPS = sig
  type b

  val pi : b -> string -> int
  val inv : b -> int -> int
  val nand : b -> int -> int -> int
  val output : b -> string -> int -> unit
  val const_output : b -> string -> bool -> unit
end

(** The NAND2-INV decomposition, generic over the node store. Two
    backends driven through [Decompose] with equivalent [BUILD_OPS]
    produce structurally identical graphs — this is the contract the
    arena conversion tests lock down. *)
module Decompose (B : BUILD_OPS) : sig
  val run : ?style:style -> B.b -> Network.t -> unit
  (** Decompose [net] into [b]: PIs (declaration order, then latch
      outputs), logic in topological order, then outputs (POs, then
      [$latch_in<i>] pseudo-outputs). The caller finishes the builder
      itself (latch count = [List.length (Network.latches net)]). *)
end

val num_nodes : t -> int
val kind : t -> int -> kind
val fanout_counts : t -> int array
(** Fanout per node; each output reference counts as one fanout. *)

val fanins : t -> int -> int list

val depth : t -> int
(** Unit-delay depth (NAND and INV each count 1). *)

val levels : t -> int array

val by_level : t -> int array array
(** Node ids grouped by level, ascending node id within each group;
    [by_level g] has [max-level + 1] groups and every node appears
    exactly once. A node's fanins always live at strictly
    smaller levels, so the groups are the parallelization fronts of
    any topological-order DP (see {!Dagmap_core.Parmap}). *)

val pi_ids : t -> int list
(** Subject ids of the PIs, in order. *)

val eval : t -> bool array -> (string * bool) list
(** Evaluate all outputs under a PI assignment (indexed in PI order);
    includes constant outputs. *)

val stats : t -> string
val to_dot : t -> string

(** Low-level builder, used by tests and by the Figure 1 / Figure 2
    constructions in the benchmark harness. *)
module Builder : sig
  type graph = t
  type t

  val create : unit -> t
  val pi : t -> string -> int
  val nand : t -> int -> int -> int
  (** Structurally hashed (commutative); [nand x x] folds to
      [inv x]. *)

  val inv : t -> int -> int
  (** Cancels inverter pairs. *)

  val raw_nand : t -> int -> int -> int
  val raw_inv : t -> int -> int
  (** Non-hashing, non-cancelling variants: create a fresh node
      unconditionally (for building specific test topologies). *)

  val output : t -> string -> int -> unit
  val const_output : t -> string -> bool -> unit
  val finish : ?n_latches:int -> t -> graph
end
