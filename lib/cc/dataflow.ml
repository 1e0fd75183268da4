(** Reusable CFG + worklist dataflow over [Ir].

    This generalizes the ad-hoc passes that grew inside [Irlint] into a
    small framework: an explicit control-flow graph over a function body,
    a depth-first reachability pass, and generic forward/backward
    worklist solvers parameterized by a lattice ([join]/[equal]) and a
    transfer function.  May-analyses join with union, must-analyses with
    intersection; the solvers do not care.

    Two clients exist today: [Irlint] (definite assignment, dead stores,
    unreachable stopping points) and [Validity] (per-stopping-point
    variable validity facts emitted into the symbol tables).  Both track
    the same variable universe — named locals whose every occurrence is a
    direct scalar frame load/store or register access — as bit masks in
    one native int, so the shared read/write walker and gen/kill helpers
    live here too. *)

(* --- variables --------------------------------------------------------------- *)

type var = Voff of int | Vreg of int  (** frame slot / register variable *)

let max_tracked = 60 (* state sets are bit masks in one native int *)

(** Named locals of a function with their symbol-table entries, found by
    walking the uplink chains of its stopping points (the same walk the
    debugger's name resolution does). *)
let named_local_syms (fd : Sym.func_debug) : (var * Sym.t) list =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec chain = function
    | None -> ()
    | Some (s : Sym.t) ->
        if not (Hashtbl.mem seen s.Sym.sid) then begin
          Hashtbl.replace seen s.Sym.sid ();
          (match (s.Sym.kind, s.Sym.where) with
          | Sym.Kvar, Some (Sym.Frame off) when off < 0 -> acc := (Voff off, s) :: !acc
          | Sym.Kvar, Some (Sym.In_reg r) -> acc := (Vreg r, s) :: !acc
          | _ -> ());
          chain s.Sym.uplink
        end
  in
  List.iter (fun (sp : Sym.stop_point) -> chain sp.Sym.sp_scope) fd.Sym.fd_stops;
  List.rev !acc

let named_locals (fd : Sym.func_debug) : (var * string) list =
  List.map (fun (v, s) -> (v, s.Sym.sym_name)) (named_local_syms fd)

(** Frame offsets that escape: any occurrence of [Addrl off] other than the
    address of a direct scalar load or store means the address is taken (or
    the slot holds an aggregate), so the slot cannot be tracked. *)
let escaped_offsets (body : Ir.stmt list) : (int, unit) Hashtbl.t =
  let escaped = Hashtbl.create 16 in
  let rec exp (e : Ir.exp) =
    match e with
    | Ir.Indir (t, Ir.Addrl off) -> if t = Ir.V then Hashtbl.replace escaped off ()
    | Ir.Asgn (t, Ir.Addrl off, v) ->
        if t = Ir.V then Hashtbl.replace escaped off ();
        exp v
    | Ir.Addrl off -> Hashtbl.replace escaped off ()
    | Ir.Cnst _ | Ir.Cnstf _ | Ir.Addrg _ | Ir.Reguse _ -> ()
    | Ir.Indir (_, a) -> exp a
    | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) -> exp a; exp b
    | Ir.Cvt (_, _, a) | Ir.Regasgn (_, a) -> exp a
    | Ir.Asgn (_, a, v) -> exp a; exp v
    | Ir.Call (_, _, args) -> List.iter exp args
    | Ir.Callind (_, f, args) -> exp f; List.iter exp args
  in
  List.iter
    (function
      | Ir.Sexp e -> exp e
      | Ir.Scjump (_, _, a, b, _) -> exp a; exp b
      | Ir.Sret (Some e) -> exp e
      | Ir.Sret None | Ir.Slabel _ | Ir.Sjump _ | Ir.Sstop _ -> ())
    body;
  escaped

(** The tracked variable universe of a function: named locals minus
    escapees, capped at [max_tracked]. *)
let tracked (body : Ir.stmt list) (fd : Sym.func_debug) : (var * Sym.t) list =
  let escaped = escaped_offsets body in
  List.filteri
    (fun i _ -> i < max_tracked)
    (List.filter
       (fun (v, _) ->
         match v with Voff off -> not (Hashtbl.mem escaped off) | Vreg _ -> true)
       (named_local_syms fd))

(** Walk one statement in evaluation order, calling [on_read] on each
    direct scalar read of a trackable variable and [on_write] on each
    direct store — the write of an assignment fires {e after} the reads
    of its right-hand side, matching the machine's order. *)
let walk ~(on_read : var -> unit) ~(on_write : var -> unit) (stmt : Ir.stmt) : unit =
  let rec exp (e : Ir.exp) =
    match e with
    | Ir.Indir (_, Ir.Addrl off) -> on_read (Voff off)
    | Ir.Reguse r -> on_read (Vreg r)
    | Ir.Asgn (_, Ir.Addrl off, v) -> exp v; on_write (Voff off)
    | Ir.Regasgn (r, v) -> exp v; on_write (Vreg r)
    | Ir.Asgn (_, a, v) -> exp a; exp v
    | Ir.Indir (_, a) -> exp a
    | Ir.Bin (_, _, a, b) | Ir.Cmp (_, _, a, b) -> exp a; exp b
    | Ir.Cvt (_, _, a) -> exp a
    | Ir.Call (_, _, args) -> List.iter exp args
    | Ir.Callind (_, f, args) -> exp f; List.iter exp args
    | Ir.Cnst _ | Ir.Cnstf _ | Ir.Addrg _ | Ir.Addrl _ -> ()
  in
  match stmt with
  | Ir.Sexp e -> exp e
  | Ir.Scjump (_, _, a, b, _) -> exp a; exp b
  | Ir.Sret (Some e) -> exp e
  | Ir.Sret None | Ir.Slabel _ | Ir.Sjump _ | Ir.Sstop _ -> ()

(* --- control-flow graph ------------------------------------------------------- *)

type cfg = {
  stmts : Ir.stmt array;
  succ : int list array;
  pred : int list array;
}

let cfg_of_body (body : Ir.stmt list) : cfg =
  let stmts = Array.of_list body in
  let n = Array.length stmts in
  let label_at = Hashtbl.create 16 in
  Array.iteri
    (fun i s -> match s with Ir.Slabel l -> Hashtbl.replace label_at l i | _ -> ())
    stmts;
  let succ_of i =
    match stmts.(i) with
    | Ir.Sjump l -> (match Hashtbl.find_opt label_at l with Some j -> [ j ] | None -> [])
    | Ir.Scjump (_, _, _, _, l) ->
        let fall = if i + 1 < n then [ i + 1 ] else [] in
        (match Hashtbl.find_opt label_at l with Some j -> j :: fall | None -> fall)
    | Ir.Sret _ -> []
    | _ -> if i + 1 < n then [ i + 1 ] else []
  in
  let succ = Array.init n succ_of in
  let pred = Array.make n [] in
  Array.iteri (fun i js -> List.iter (fun j -> pred.(j) <- i :: pred.(j)) js) succ;
  { stmts; succ; pred }

(** Statements reachable from entry (statement 0). *)
let reachable (g : cfg) : bool array =
  let n = Array.length g.stmts in
  let seen = Array.make n false in
  let rec dfs i =
    if not seen.(i) then begin
      seen.(i) <- true;
      List.iter dfs g.succ.(i)
    end
  in
  if n > 0 then dfs 0;
  seen

(* --- generic worklist solvers ------------------------------------------------- *)

(** The lattice a solver iterates over.  [join] combines facts flowing
    into a statement: union for may-analyses, intersection for
    must-analyses. *)
type 'a lattice = { join : 'a -> 'a -> 'a; equal : 'a -> 'a -> bool }

(** The bit-mask lattice over the tracked-variable universe. *)
let may_mask : int lattice = { join = ( lor ); equal = Int.equal }

(** Forward solve to fixpoint.  Returns the state {e entering} each
    statement; [None] means the statement is not reachable from entry, so
    no fact holds there.  [entry] is the boundary state at statement 0;
    [transfer i stmt s] yields the state after executing [stmt] in state
    [s]. *)
let solve_forward (g : cfg) (l : 'a lattice) ~(entry : 'a)
    ~(transfer : int -> Ir.stmt -> 'a -> 'a) : 'a option array =
  let n = Array.length g.stmts in
  let in_state = Array.make n None in
  if n > 0 then begin
    in_state.(0) <- Some entry;
    let work = Queue.create () in
    Queue.add 0 work;
    while not (Queue.is_empty work) do
      let i = Queue.pop work in
      match in_state.(i) with
      | None -> ()
      | Some s ->
          let out = transfer i g.stmts.(i) s in
          List.iter
            (fun j ->
              let nw =
                match in_state.(j) with None -> out | Some old -> l.join old out
              in
              let changed =
                match in_state.(j) with None -> true | Some old -> not (l.equal old nw)
              in
              if changed then begin
                in_state.(j) <- Some nw;
                Queue.add j work
              end)
            g.succ.(i)
    done
  end;
  in_state

(** Backward solve to fixpoint.  Returns the state {e entering} each
    statement (against the flow: the fact that holds just before it
    executes).  All statements start at [bottom]; statements with no
    successors see [bottom] flowing in.  [transfer i stmt out] yields the
    in-state from the joined successor state [out]. *)
let solve_backward (g : cfg) (l : 'a lattice) ~(bottom : 'a)
    ~(transfer : int -> Ir.stmt -> 'a -> 'a) : 'a array =
  let n = Array.length g.stmts in
  let in_state = Array.make n bottom in
  let work = Queue.create () in
  Array.iteri (fun i _ -> Queue.add i work) g.stmts;
  while not (Queue.is_empty work) do
    let i = Queue.pop work in
    let out = List.fold_left (fun acc j -> l.join acc in_state.(j)) bottom g.succ.(i) in
    let nw = transfer i g.stmts.(i) out in
    if not (l.equal nw in_state.(i)) then begin
      in_state.(i) <- nw;
      List.iter (fun p -> Queue.add p work) g.pred.(i)
    end
  done;
  in_state

(* --- shared bit-mask transfer functions --------------------------------------- *)

(** Forward may-uninitialized transfer: bit set = possibly uninitialized.
    Threads the mask through one statement in evaluation order; [on_read]
    sees each tracked read's bit index with the mask at that moment. *)
let uninit_transfer ~(idx_of : var -> int option) ?(on_read = fun _ _ -> ())
    (s0 : int) (stmt : Ir.stmt) : int =
  let state = ref s0 in
  walk stmt
    ~on_read:(fun v -> match idx_of v with Some i -> on_read i !state | None -> ())
    ~on_write:(fun v ->
      match idx_of v with
      | Some i -> state := !state land lnot (1 lsl i)
      | None -> ());
  !state

(** Gen (read) and kill (write) masks of one statement, for backward
    liveness: [live_in = gen lor (live_out land lnot kill)]. *)
let genkill ~(idx_of : var -> int option) (stmt : Ir.stmt) : int * int =
  let g = ref 0 and k = ref 0 in
  walk stmt
    ~on_read:(fun v -> match idx_of v with Some i -> g := !g lor (1 lsl i) | None -> ())
    ~on_write:(fun v -> match idx_of v with Some i -> k := !k lor (1 lsl i) | None -> ());
  (!g, !k)

(** Backward liveness over the tracked universe: returns the live-in mask
    per statement (bit set = the variable's value may still be read). *)
let liveness (g : cfg) ~(idx_of : var -> int option) : int array =
  let n = Array.length g.stmts in
  let gens = Array.make n 0 and kills = Array.make n 0 in
  Array.iteri
    (fun i stmt ->
      let gen, kill = genkill ~idx_of stmt in
      gens.(i) <- gen;
      kills.(i) <- kill)
    g.stmts;
  solve_backward g may_mask ~bottom:0 ~transfer:(fun i _ out ->
      gens.(i) lor (out land lnot kills.(i)))
