open Dagmap_genlib
open Dagmap_subject
open Dagmap_obs

(* Category of a pattern node as seen from its parent: a leaf matches
   any subject node; inverters and NANDs must match like kinds. *)
type cat = Cl | Ci | Cn

let cat_of_pnode p i =
  match p.Pattern.nodes.(i) with
  | Pattern.Pleaf _ -> Cl
  | Pattern.Pinv _ -> Ci
  | Pattern.Pnand _ -> Cn

let cat_matches cat (k : Subject.kind) =
  match cat, k with
  | Cl, _ -> true
  | Ci, Sinv _ -> true
  | Cn, Snand _ -> true
  | (Ci | Cn), _ -> false

type t = {
  lib : Libraries.t;
  (* NAND-rooted patterns bucketed by the unordered pair of child
     categories; INV-rooted by the single child category. *)
  nand_buckets : Pattern.t list array array; (* [cat][cat], cat_a <= cat_b *)
  inv_buckets : Pattern.t list array;
  max_depth : int;  (* deepest pattern, in edges; bounds every cone *)
  mutable boolean_memo : Boolean_match.t option;
      (* lazily-built Boolean index over the same library (incl. any
         supergates), shared by the cut mappers — see [boolean] *)
}

let cat_index = function Cl -> 0 | Ci -> 1 | Cn -> 2

let prepare lib =
  let nand_buckets = Array.make_matrix 3 3 [] in
  let inv_buckets = Array.make 3 [] in
  let max_depth = ref 1 in
  List.iter
    (fun p ->
      max_depth := max !max_depth p.Pattern.depth;
      match p.Pattern.nodes.(p.Pattern.root) with
      | Pattern.Pleaf _ ->
        (* Wire/buffer patterns cannot root a cover. *)
        ()
      | Pattern.Pinv c ->
        let i = cat_index (cat_of_pnode p c) in
        inv_buckets.(i) <- p :: inv_buckets.(i)
      | Pattern.Pnand (a, b) ->
        let ia = cat_index (cat_of_pnode p a) in
        let ib = cat_index (cat_of_pnode p b) in
        let lo, hi = if ia <= ib then (ia, ib) else (ib, ia) in
        nand_buckets.(lo).(hi) <- p :: nand_buckets.(lo).(hi))
    lib.Libraries.patterns;
  { lib; nand_buckets; inv_buckets; max_depth = !max_depth;
    boolean_memo = None }

let library db = db.lib

(* One Boolean index per prepared library, built on first use: the
   structural and cut mappers then share a single permutation-variant
   table instead of each consumer re-running [Boolean_match.prepare].
   The memo write is a single pointer store; a concurrent race at
   worst builds the index twice with identical contents (same benign
   pattern as [Arena.levels_memo]). *)
let boolean db =
  match db.boolean_memo with
  | Some b -> b
  | None ->
    let b = Boolean_match.prepare db.lib in
    db.boolean_memo <- Some b;
    b

let num_patterns db = List.length db.lib.Libraries.patterns

let cats = [| Cl; Ci; Cn |]

let enumerate db cls g ~fanouts ~levels node f =
  let try_pattern p =
    if p.Pattern.depth <= levels.(node) then
      Matcher.for_each_match cls g ~fanouts p node f
  in
  match Subject.kind g node with
  | Spi -> ()
  | Sinv x ->
    let kx = Subject.kind g x in
    Array.iteri
      (fun i cat ->
        if cat_matches cat kx then List.iter try_pattern db.inv_buckets.(i))
      cats
  | Snand (x, y) ->
    let kx = Subject.kind g x and ky = Subject.kind g y in
    for lo = 0 to 2 do
      for hi = lo to 2 do
        let a = cats.(lo) and b = cats.(hi) in
        let compatible =
          (cat_matches a kx && cat_matches b ky)
          || (cat_matches a ky && cat_matches b kx)
        in
        if compatible then List.iter try_pattern db.nand_buckets.(lo).(hi)
      done
    done

(* ------------------------------------------------------------------ *)
(* Canonical-signature match cache                                     *)
(* ------------------------------------------------------------------ *)

(* The labeling pass enumerates matches at every subject node, but
   ISCAS-like circuits are full of repeated local shapes (adder cells,
   compressor rows, decoder slices). Whether a pattern matches at a
   node depends only on the depth-bounded cone under that node — every
   binding made by the matcher lands within [max_depth] edges of the
   root — so isomorphic cones have isomorphic match sets. We key each
   node by a canonical signature of that cone and replay the match set
   through the isomorphism instead of re-running the backtracking
   search. This is the structural analogue of the NPN-canonical cut
   caching used by Boolean matchers: NPN classes would under-split
   (structural matching distinguishes decompositions of the same
   function), so the key is the canonical local DAG itself.

   The signature is built by a breadth-first enumeration from the
   root: local ids are assigned in first-visit order, nodes first seen
   at depth [max_depth] are recorded as opaque frontier leaves (only
   pattern leaves can bind there), and sharing is captured by child
   references to already-assigned local ids. Equal signatures
   therefore guarantee an isomorphism of everything the matcher can
   observe: kinds, sharing/injectivity structure, the root's
   depth-prune level and — for the exact class — fanout counts of
   interior nodes. Matches are stored with pins/covered translated to
   local ids and translated back on a hit, preserving enumeration
   order, so cached and uncached lookups return identical lists. *)

type centry = {
  c_pattern : Pattern.t;
  c_pins : int array;     (* local cone ids; -1 for an unused pin *)
  c_covered : int array;  (* local cone ids *)
}

type cache = {
  table : (string, centry list) Hashtbl.t;
  (* Counters are [Obs.Metrics] atomics: the per-cache totals feed
     Mapper.stats, and every bump is mirrored into the process-global
     registry counters below, which are shared by all caches across
     all Parmap domains. The former [mutable int] fields lost updates
     whenever a cache (or the aggregate) was read or written from
     more than one domain. *)
  hits : Metrics.Counter.t;
  misses : Metrics.Counter.t;
  lookups : Metrics.Counter.t;
  mutable disabled : bool;
  (* Scratch state reused across lookups (single-threaded per cache;
     parallel labeling gives each worker domain its own cache). *)
  mutable cone : int array;        (* local id -> subject id *)
  mutable cone_len : int;
  local_of : (int, int) Hashtbl.t; (* subject id -> local id *)
  buf : Buffer.t;
}

(* Process-global aggregates over every cache in every domain. The
   conservation law [lookups = hits + misses] holds on these exactly
   because each counter is atomic — the multi-domain test in
   test_matchcache.ml locks this down. *)
let global_hits = Metrics.counter "matchdb.cache.hits"
let global_misses = Metrics.counter "matchdb.cache.misses"
let global_lookups = Metrics.counter "matchdb.cache.lookups"

let create_cache _db =
  { table = Hashtbl.create 1024;
    hits = Metrics.Counter.create ();
    misses = Metrics.Counter.create ();
    lookups = Metrics.Counter.create ();
    disabled = false;
    cone = Array.make 64 0;
    cone_len = 0;
    local_of = Hashtbl.create 64;
    buf = Buffer.create 256 }

let cache_hits c = Metrics.Counter.value c.hits
let cache_misses c = Metrics.Counter.value c.misses
let cache_lookups c = Metrics.Counter.value c.lookups
let cache_retired c = c.disabled

let count_hit c =
  Metrics.Counter.incr c.hits;
  Metrics.Counter.incr global_hits

let count_miss c =
  Metrics.Counter.incr c.misses;
  Metrics.Counter.incr global_misses

let count_lookup c =
  Metrics.Counter.incr c.lookups;
  Metrics.Counter.incr global_lookups

let reset_counters c =
  Metrics.Counter.reset c.hits;
  Metrics.Counter.reset c.misses;
  Metrics.Counter.reset c.lookups

(* Beyond this cone size the signature itself gets expensive and
   shapes stop repeating; bypass the cache (still deterministic). *)
let cone_budget = 512

(* Caching only pays on circuits with repeated local shapes. On
   shape-diverse subjects (seeded random logic) signature+store
   overhead exceeds the savings, so a cache that keeps missing turns
   itself off: after [probation] lookups, if the hit rate is below
   1/2^[min_hit_shift], further lookups bypass the cache (and
   are not counted — the hits/misses/lookups invariant is preserved
   on whatever was actually looked up). *)
let probation = 2048
let min_hit_shift = 2 (* hits < lookups/2^2, i.e. < 25 % *)

let maybe_retire c =
  if
    cache_lookups c >= probation
    && cache_hits c < cache_lookups c asr min_hit_shift
  then begin
    c.disabled <- true;
    Hashtbl.reset c.table
  end

let push_cone c sid =
  let id = c.cone_len in
  if id = Array.length c.cone then begin
    let grown = Array.make (2 * id) 0 in
    Array.blit c.cone 0 grown 0 id;
    c.cone <- grown
  end;
  c.cone.(id) <- sid;
  c.cone_len <- id + 1;
  Hashtbl.replace c.local_of sid id;
  id

(* Local ids fit 16 bits (cone_budget + transient slack << 65536). *)
let add_id buf i = Buffer.add_int16_ne buf i

(* Build the canonical cone signature rooted at [node]; fills
   [c.cone]/[c.local_of] with the local enumeration and returns the
   key, or [None] if the cone exceeds the budget. *)
let cone_key c db cls g ~fanouts ~levels node =
  c.cone_len <- 0;
  Hashtbl.reset c.local_of;
  let buf = c.buf in
  Buffer.clear buf;
  Buffer.add_char buf
    (match cls with
     | Matcher.Standard -> 's'
     | Matcher.Exact -> 'e'
     | Matcher.Extended -> 'x');
  Buffer.add_int8 buf (min levels.(node) db.max_depth);
  let exact = cls = Matcher.Exact in
  (* Breadth-first so that first-visit depth equals min-depth: a node
     expanded once is expandable from every occurrence. *)
  let q = Queue.create () in
  ignore (push_cone c node);
  Queue.add (node, 0) q;
  let ok = ref true in
  while !ok && not (Queue.is_empty q) do
    let sid, d = Queue.pop q in
    if c.cone_len > cone_budget then ok := false
    else begin
      let child x =
        match Hashtbl.find_opt c.local_of x with
        | Some l -> l
        | None ->
          let l = push_cone c x in
          Queue.add (x, d + 1) q;
          l
      in
      (if d >= db.max_depth then Buffer.add_char buf 'f'
       else
         match Subject.kind g sid with
         | Subject.Spi -> Buffer.add_char buf 'p'
         | Subject.Sinv x ->
           Buffer.add_char buf 'i';
           add_id buf (child x)
         | Subject.Snand (x, y) ->
           Buffer.add_char buf 'n';
           let lx = child x in
           let ly = child y in
           add_id buf lx;
           add_id buf ly);
      (* The exact class compares subject fanouts against pattern
         fanouts, which are tiny; every count >= 255 is equivalent, so
         one clamped byte keeps the key injective where it matters. *)
      if exact && d > 0 && d < db.max_depth then
        Buffer.add_int8 buf (min fanouts.(sid) 255)
    end
  done;
  if !ok then Some (Buffer.contents buf) else None

let translate c (e : centry) =
  let pins =
    Array.map (fun l -> if l >= 0 then c.cone.(l) else -1) e.c_pins
  in
  let covered = Array.map (fun l -> c.cone.(l)) e.c_covered in
  (* The matcher reports covered nodes sorted by subject id; keep the
     translated match bit-identical to a fresh enumeration. *)
  Array.sort compare covered;
  { Matcher.pattern = e.c_pattern; pins; covered }

let intern c (m : Matcher.mtch) =
  { c_pattern = m.Matcher.pattern;
    c_pins =
      Array.map
        (fun s -> if s >= 0 then Hashtbl.find c.local_of s else -1)
        m.Matcher.pins;
    c_covered = Array.map (fun s -> Hashtbl.find c.local_of s) m.Matcher.covered }

let for_each_node_match ?cache db cls g ~fanouts ~levels node f =
  match cache, Subject.kind g node with
  | None, _ | _, Spi -> enumerate db cls g ~fanouts ~levels node f
  | Some c, (Snand _ | Sinv _) when c.disabled ->
    enumerate db cls g ~fanouts ~levels node f
  | Some c, (Snand _ | Sinv _) -> begin
    count_lookup c;
    match cone_key c db cls g ~fanouts ~levels node with
    | None ->
      (* Over-budget cone: charge a miss, don't store. *)
      count_miss c;
      maybe_retire c;
      enumerate db cls g ~fanouts ~levels node f
    | Some key -> begin
      match Hashtbl.find_opt c.table key with
      | Some entries ->
        count_hit c;
        List.iter (fun e -> f (translate c e)) entries
      | None ->
        count_miss c;
        maybe_retire c;
        let acc = ref [] in
        enumerate db cls g ~fanouts ~levels node (fun m ->
            acc := intern c m :: !acc;
            f m);
        if not c.disabled then Hashtbl.replace c.table key (List.rev !acc)
    end
  end

let node_matches ?cache db cls g ~fanouts ~levels node =
  let acc = ref [] in
  for_each_node_match ?cache db cls g ~fanouts ~levels node (fun m ->
      acc := m :: !acc);
  List.rev !acc
