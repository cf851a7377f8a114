open Dagmap_logic
open Dagmap_subject

type lut = {
  lut_root : int;
  lut_inputs : int array;
  lut_func : Truth.t;
}

type cover = {
  graph : Subject.t;
  k : int;
  labels : int array;
  luts : lut list;
  lut_outputs : (string * int) list;
}

(* Fanin cone of [t] (inclusive), using timestamped marks to avoid
   re-allocating visited arrays per node. Explicit enter/exit stack
   (not recursion): cones are as deep as the subject graph, which is
   unbounded. The emitted order is the recursive post-order reversed
   — t first — and feeds the flow-network construction, so it must
   stay byte-stable for the cut choice to stay deterministic. *)
let cone_of g marks stamp t =
  let acc = ref [] in
  let stack = Stack.create () in
  Stack.push (t, false) stack;
  while not (Stack.is_empty stack) do
    let u, exit = Stack.pop stack in
    if exit then acc := u :: !acc
    else if marks.(u) <> stamp then begin
      marks.(u) <- stamp;
      Stack.push (u, true) stack;
      List.iter (fun f -> Stack.push (f, false) stack)
        (List.rev (Subject.fanins g u))
    end
  done;
  !acc

(* Decide whether the cone of [t] admits a k-feasible cut of height
   [p - 1], i.e. with all label-p nodes (and t) collapsed into the
   sink; returns the cut as subject nodes if it exists. *)
let feasible_cut g labels k cone t p =
  let collapsed u = u = t || labels.(u) = p in
  let locals = List.filter (fun u -> not (collapsed u)) cone in
  let index = Hashtbl.create 64 in
  List.iteri (fun i u -> Hashtbl.replace index u i) locals;
  let n_local = List.length locals in
  let source = 0 and sink = 1 in
  let v_in i = 2 + (2 * i) and v_out i = 3 + (2 * i) in
  let net = Maxflow.create (2 + (2 * n_local)) in
  List.iter
    (fun u ->
      let i = Hashtbl.find index u in
      Maxflow.add_edge net (v_in i) (v_out i) 1;
      if Subject.kind g u = Subject.Spi then
        Maxflow.add_edge net source (v_in i) Maxflow.infinite)
    locals;
  (* Edges of the cone. Every cone node except PIs has its fanins in
     the cone by construction. *)
  List.iter
    (fun u ->
      let targets = if collapsed u then [ sink ] else [ v_in (Hashtbl.find index u) ] in
      List.iter
        (fun f ->
          let src =
            if collapsed f then None (* collapsed -> collapsed: internal *)
            else Some (v_out (Hashtbl.find index f))
          in
          match src with
          | None -> ()
          | Some s -> List.iter (fun tgt -> Maxflow.add_edge net s tgt Maxflow.infinite) targets)
        (Subject.fanins g u))
    cone;
  let flow = Maxflow.max_flow_bounded net ~source ~sink ~bound:k in
  if flow > k then None
  else begin
    let side = Maxflow.min_cut_side net ~source in
    let cut =
      List.filter
        (fun u ->
          let i = Hashtbl.find index u in
          side.(v_in i) && not side.(v_out i))
        locals
    in
    (* PIs whose in-vertex is unreachable cannot occur: source feeds
       them with infinite capacity, so side always contains v_in. *)
    Some (Array.of_list cut)
  end

let map ~k g =
  if k < 2 then invalid_arg "Flowmap.map: k must be >= 2";
  let n = Subject.num_nodes g in
  let labels = Array.make n 0 in
  let cuts = Array.make n [||] in
  let marks = Array.make n (-1) in
  for t = 0 to n - 1 do
    match Subject.kind g t with
    | Spi -> labels.(t) <- 0
    | Snand _ | Sinv _ ->
      let cone = cone_of g marks t t in
      let p =
        List.fold_left
          (fun acc u -> if u = t then acc else max acc labels.(u))
          0 cone
      in
      let direct = Array.of_list (Subject.fanins g t) in
      if p = 0 then begin
        (* Whole cone is PIs: the direct fanins are the only cut. *)
        labels.(t) <- 1;
        cuts.(t) <- direct
      end
      else begin
        match feasible_cut g labels k cone t p with
        | Some cut ->
          labels.(t) <- p;
          cuts.(t) <- cut
        | None ->
          labels.(t) <- p + 1;
          cuts.(t) <- direct
      end
  done;
  (* LUT generation backward from the outputs (duplication implicit). *)
  let needed = Hashtbl.create 64 in
  let queue = Queue.create () in
  let require u =
    match Subject.kind g u with
    | Spi -> ()
    | Snand _ | Sinv _ ->
      if not (Hashtbl.mem needed u) then begin
        Hashtbl.add needed u ();
        Queue.add u queue
      end
  in
  List.iter (fun o -> require o.Subject.out_node) g.Subject.outputs;
  let luts = ref [] in
  while not (Queue.is_empty queue) do
    let t = Queue.pop queue in
    let cut = cuts.(t) in
    Array.iter require cut;
    (* Function of the region between [cut] and [t]. *)
    let input_index = Hashtbl.create 8 in
    Array.iteri (fun i u -> Hashtbl.replace input_index u i) cut;
    let w = Array.length cut in
    let func = ref (Truth.const w false) in
    let stack = Stack.create () in
    for m = 0 to (1 lsl w) - 1 do
      let memo = Hashtbl.create 16 in
      let lookup u =
        match Hashtbl.find_opt input_index u with
        | Some i -> Some (m land (1 lsl i) <> 0)
        | None -> Hashtbl.find_opt memo u
      in
      (* Memoized region evaluation on an explicit stack (regions can
         be chain-deep): a node stays on the stack until its fanins
         resolve, then computes in one step. *)
      let value t =
        Stack.push t stack;
        while not (Stack.is_empty stack) do
          let u = Stack.top stack in
          if lookup u <> None then ignore (Stack.pop stack)
          else begin
            let deps =
              match Subject.kind g u with
              | Subject.Spi ->
                (* A PI inside the region but not on the cut cannot
                   happen: cuts separate PIs from the root. *)
                assert false
              | Subject.Sinv x -> [ x ]
              | Subject.Snand (x, y) -> [ x; y ]
            in
            match List.filter (fun d -> lookup d = None) deps with
            | [] ->
              let get d = Option.get (lookup d) in
              let v =
                match Subject.kind g u with
                | Subject.Spi -> assert false
                | Subject.Sinv x -> not (get x)
                | Subject.Snand (x, y) -> not (get x && get y)
              in
              Hashtbl.replace memo u v;
              ignore (Stack.pop stack)
            | pending ->
              List.iter (fun d -> Stack.push d stack) (List.rev pending)
          end
        done;
        Option.get (lookup t)
      in
      if value t then func := Truth.set_bit !func m true
    done;
    luts := { lut_root = t; lut_inputs = cut; lut_func = !func } :: !luts
  done;
  let lut_outputs =
    List.map (fun o -> (o.Subject.out_name, o.Subject.out_node)) g.Subject.outputs
  in
  { graph = g; k; labels; luts = List.rev !luts; lut_outputs }

let depth cover =
  List.fold_left
    (fun acc (_, node) -> max acc cover.labels.(node))
    0 cover.lut_outputs

let num_luts cover = List.length cover.luts

let eval cover assignment =
  let g = cover.graph in
  let pis = Subject.pi_ids g in
  let value = Hashtbl.create 64 in
  List.iteri (fun i id -> Hashtbl.replace value id assignment.(i)) pis;
  let by_root = Hashtbl.create 64 in
  List.iter (fun lut -> Hashtbl.replace by_root lut.lut_root lut) cover.luts;
  (* LUT-network evaluation on an explicit stack: LUT chains are as
     deep as the cover's depth, which is unbounded. *)
  let stack = Stack.create () in
  let node_value target =
    Stack.push target stack;
    while not (Stack.is_empty stack) do
      let u = Stack.top stack in
      if Hashtbl.mem value u then ignore (Stack.pop stack)
      else begin
        let lut = Hashtbl.find by_root u in
        match
          List.filter
            (fun d -> not (Hashtbl.mem value d))
            (Array.to_list lut.lut_inputs)
        with
        | [] ->
          let inputs = Array.map (Hashtbl.find value) lut.lut_inputs in
          Hashtbl.replace value u (Truth.eval lut.lut_func inputs);
          ignore (Stack.pop stack)
        | pending ->
          List.iter (fun d -> Stack.push d stack) (List.rev pending)
      end
    done;
    Hashtbl.find value target
  in
  List.map (fun (name, node) -> (name, node_value node)) cover.lut_outputs
  @ List.map (fun (name, b) -> (name, b)) g.Subject.const_outputs

let to_network cover =
  let g = cover.graph in
  let net = Network.create ~name:"lut_cover" () in
  let node_of = Hashtbl.create 64 in
  List.iter
    (fun id ->
      Hashtbl.replace node_of id (Network.add_pi net g.Subject.names.(id)))
    (Subject.pi_ids g);
  (* LUTs are discovered outputs-first; create them in dependency
     order. *)
  let by_root = Hashtbl.create 64 in
  List.iter (fun lut -> Hashtbl.replace by_root lut.lut_root lut) cover.luts;
  (* Explicit stack, like [eval]: a LUT materializes once all its
     inputs exist, so creation order (hence node numbering in the
     emitted network) matches the recursive left-to-right DFS. *)
  let stack = Stack.create () in
  let materialize root =
    Stack.push root stack;
    while not (Stack.is_empty stack) do
      let r = Stack.top stack in
      if Hashtbl.mem node_of r then ignore (Stack.pop stack)
      else begin
        let lut = Hashtbl.find by_root r in
        match
          List.filter
            (fun d -> not (Hashtbl.mem node_of d))
            (Array.to_list lut.lut_inputs)
        with
        | [] ->
          let fanins = Array.map (Hashtbl.find node_of) lut.lut_inputs in
          let w = Array.length lut.lut_inputs in
          (* Truth table to SOP expression over the LUT inputs. *)
          let minterms = ref [] in
          for m = 0 to (1 lsl w) - 1 do
            if Truth.get_bit lut.lut_func m then
              minterms :=
                List.init w (fun i -> (i, m land (1 lsl i) <> 0)) :: !minterms
          done;
          let expr = Bexpr.of_cubes !minterms in
          let id =
            Network.add_logic net ~name:(Printf.sprintf "lut%d" r) expr fanins
          in
          Hashtbl.replace node_of r id;
          ignore (Stack.pop stack)
        | pending ->
          List.iter (fun d -> Stack.push d stack) (List.rev pending)
      end
    done;
    Hashtbl.find node_of root
  in
  List.iter
    (fun (name, node) -> Network.add_po net name (materialize node))
    cover.lut_outputs;
  List.iter
    (fun (name, b) ->
      let id = Network.add_logic net (Bexpr.const b) [||] in
      Network.add_po net name id)
    g.Subject.const_outputs;
  net

let check_labels_optimal cover =
  let g = cover.graph in
  let ok = ref true in
  (* Each stored LUT must realize its root's label. *)
  List.iter
    (fun lut ->
      let h =
        Array.fold_left (fun acc u -> max acc cover.labels.(u)) 0 lut.lut_inputs
      in
      if cover.labels.(lut.lut_root) <> h + 1 then ok := false;
      if Array.length lut.lut_inputs > cover.k then ok := false)
    cover.luts;
  (* Labels must respect the direct-fanin bound. *)
  for t = 0 to Subject.num_nodes g - 1 do
    match Subject.kind g t with
    | Subject.Spi -> if cover.labels.(t) <> 0 then ok := false
    | Subject.Snand _ | Subject.Sinv _ ->
      let bound =
        1 + List.fold_left (fun acc f -> max acc cover.labels.(f)) 0 (Subject.fanins g t)
      in
      if cover.labels.(t) > bound || cover.labels.(t) < 1 then ok := false
  done;
  !ok
