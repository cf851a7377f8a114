(** FlowMap: depth-optimal technology mapping for k-LUT FPGAs
    (Cong & Ding 1994) — the algorithm the paper generalizes to
    library-based mapping. Operates on NAND2-INV subject graphs
    (which are 2-bounded, hence k-bounded for any k >= 2).

    The labeling procedure computes each node's optimal depth: the
    label is [p] if a k-feasible cut of height [p - 1] exists in the
    node's fanin cone (decided by max-flow on the node-split cone
    with all label-[p] nodes collapsed into the sink) and [p + 1]
    otherwise. LUTs are then generated backward from the outputs,
    duplicating logic exactly as DAG covering does. *)

open Dagmap_logic
open Dagmap_subject

type lut = {
  lut_root : int;        (** subject node implemented by this LUT *)
  lut_inputs : int array; (** subject nodes feeding the LUT (the cut) *)
  lut_func : Truth.t;    (** function over [lut_inputs] *)
}

type cover = {
  graph : Subject.t;
  k : int;
  labels : int array;    (** optimal depth per subject node *)
  luts : lut list;
  lut_outputs : (string * int) list;
      (** output name -> subject node (a LUT root or a PI) *)
}

val map : k:int -> Subject.t -> cover
(** Depth-optimal k-LUT mapping. Raises [Invalid_argument] for
    [k < 2]. *)

val depth : cover -> int
(** Worst output label (number of LUT levels on the critical path). *)

val num_luts : cover -> int

val eval : cover -> bool array -> (string * bool) list
(** Evaluate the LUT network under a PI assignment (subject PI
    order); used by the equivalence tests. *)

val to_network : cover -> Network.t
(** Export the LUT cover as a Boolean network (one logic node per
    LUT, functions from the LUT truth tables) — ready for BLIF or
    Verilog export, or for re-mapping. PI names are preserved. *)

val check_labels_optimal : cover -> bool
(** Sanity invariant used by tests: every LUT realizes its root's
    label, i.e. [label root = 1 + max label over cut inputs] and no
    label exceeds its fanin-implied bound. *)
