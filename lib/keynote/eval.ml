type result = { level : string; index : int; assertions_evaluated : int }

(* Observability (lib/metrics): the section-5 prediction — dispatch cost
   grows with the number of assertions the policy check evaluates — in
   counter form. *)
let m_scope = Smod_metrics.scope "keynote"
let m_queries = Smod_metrics.Scope.counter m_scope "queries"
let m_assertions_evaluated = Smod_metrics.Scope.counter m_scope "assertions_evaluated"

let rec attr_value name = function
  | [] -> ""
  | (k, v) :: rest -> if String.equal k name then v else attr_value name rest

let term_value ~attrs = function
  | Ast.Str s -> s
  | Ast.Int i -> string_of_int i
  | Ast.Attr a -> attr_value a attrs

let is_digit c = c >= '0' && c <= '9'

(* [int_of_string] accepts only text that starts, after an optional sign,
   with a decimal digit.  Testing that first keeps the usual
   string-vs-string comparison from raising and catching [Failure]. *)
let may_be_int s =
  let n = String.length s in
  if n = 0 then false
  else
    match s.[0] with
    | '-' | '+' -> n > 1 && is_digit s.[1]
    | c -> is_digit c

let compare_values a b =
  if may_be_int a && may_be_int b then
    match (int_of_string_opt a, int_of_string_opt b) with
    | Some ia, Some ib -> Int.compare ia ib
    | _ -> String.compare a b
  else String.compare a b

let rec eval_expr ~attrs = function
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Not e -> not (eval_expr ~attrs e)
  | Ast.And (a, b) -> eval_expr ~attrs a && eval_expr ~attrs b
  | Ast.Or (a, b) -> eval_expr ~attrs a || eval_expr ~attrs b
  | Ast.Cmp (ta, op, tb) -> (
      let c = compare_values (term_value ~attrs ta) (term_value ~attrs tb) in
      match op with
      | Ast.Eq -> c = 0
      | Ast.Ne -> c <> 0
      | Ast.Lt -> c < 0
      | Ast.Le -> c <= 0
      | Ast.Gt -> c > 0
      | Ast.Ge -> c >= 0)

let kth_largest k values =
  let sorted = List.sort (fun a b -> compare b a) values in
  match List.nth_opt sorted (k - 1) with Some v -> v | None -> 0

(* One query's inputs and running state.  The evaluation below is written
   as top-level functions over this record rather than closures inside
   [query], so a query allocates the record and its result and little
   else. *)
type ctx = {
  credentials : Ast.assertion list;
  attrs : (string * string) list;
  requesters : string list;
  levels : string array;
  mutable evaluated : int;
  mutable tables : ((string, unit) Hashtbl.t * (string, int) Hashtbl.t) option;
      (* principals in progress, and memoised principal values; created
         on the first licensee that is not a requester *)
}

let level_index ctx name =
  let rec find i =
    if i >= Array.length ctx.levels then
      invalid_arg (Printf.sprintf "Eval.query: unknown compliance level %S" name)
    else if String.equal ctx.levels.(i) name then i
    else find (i + 1)
  in
  find 0

let rec conditions_value ctx acc = function
  | [] -> acc
  | (c : Ast.clause) :: rest ->
      let acc =
        if eval_expr ~attrs:ctx.attrs c.guard then Int.max acc (level_index ctx c.value)
        else acc
      in
      conditions_value ctx acc rest

let rec is_requester p = function
  | [] -> false
  | r :: rest -> String.equal r p || is_requester p rest

let tables ctx =
  match ctx.tables with
  | Some t -> t
  | None ->
      let t = (Hashtbl.create 16, Hashtbl.create 16) in
      ctx.tables <- Some t;
      t

(* Principal values with cycle protection: principals currently being
   evaluated contribute minimum trust. *)
let rec principal_value ctx p =
  if is_requester p ctx.requesters then Array.length ctx.levels - 1
  else begin
    let in_progress, memo = tables ctx in
    if Hashtbl.mem in_progress p then 0
    else begin
      match Hashtbl.find_opt memo p with
      | Some v -> v
      | None ->
          Hashtbl.replace in_progress p ();
          let v = max_authorized_by ctx p 0 ctx.credentials in
          Hashtbl.remove in_progress p;
          Hashtbl.replace memo p v;
          v
    end
  end

and max_authorized_by ctx p acc = function
  | [] -> acc
  | (a : Ast.assertion) :: rest ->
      let acc =
        if String.equal a.authorizer p then Int.max acc (assertion_value ctx a) else acc
      in
      max_authorized_by ctx p acc rest

and licensees_value ctx = function
  | Ast.L_empty -> 0
  | Ast.L_principal p -> principal_value ctx p
  | Ast.L_and (a, b) -> Int.min (licensees_value ctx a) (licensees_value ctx b)
  | Ast.L_or (a, b) -> Int.max (licensees_value ctx a) (licensees_value ctx b)
  | Ast.L_kof (k, ls) -> kth_largest k (List.map (licensees_value ctx) ls)

and assertion_value ctx (a : Ast.assertion) =
  ctx.evaluated <- ctx.evaluated + 1;
  Int.min (conditions_value ctx 0 a.conditions) (licensees_value ctx a.licensees)

let query ~policy ~credentials ~attrs ~requesters ~levels =
  if Array.length levels = 0 then invalid_arg "Eval.query: empty levels";
  let ctx = { credentials; attrs; requesters; levels; evaluated = 0; tables = None } in
  let index = max_authorized_by ctx "POLICY" 0 policy in
  Smod_metrics.Counter.incr m_queries;
  Smod_metrics.Counter.add m_assertions_evaluated ctx.evaluated;
  { level = levels.(index); index; assertions_evaluated = ctx.evaluated }
