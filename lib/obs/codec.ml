(* Two-way JSON codecs.  A decoder signals a bad value with the private
   [Fail] exception, which each enclosing field or list element extends
   with its path segment on the way out; [decode] turns it into [Error].
   Nothing else is caught, and nothing escapes [decode]. *)

type seg = Field of string | Index of int

exception Fail of seg list * string

type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }

let fail msg = raise (Fail ([], msg))

let render path msg =
  let buf = Buffer.create 64 in
  List.iter
    (function
      | Field name ->
          if Buffer.length buf > 0 then Buffer.add_char buf '.';
          Buffer.add_string buf name
      | Index i -> Printf.bprintf buf "[%d]" i)
    path;
  if path = [] then msg else Printf.sprintf "%s: %s" (Buffer.contents buf) msg

let encode c v = c.enc v

let decode c j =
  match c.dec j with v -> Ok v | exception Fail (path, msg) -> Error (render path msg)

(* ------------------------------------------------------------------ *)
(* Values *)

let scalar what enc to_v =
  { enc; dec = (fun j -> match to_v j with Some v -> v | None -> fail ("expected " ^ what)) }

let int = scalar "int" (fun i -> Json.Int i) Json.to_int
let float = scalar "float" (fun f -> Json.Float f) Json.to_float
let string = scalar "string" (fun s -> Json.String s) Json.to_str
let bool = scalar "bool" (fun b -> Json.Bool b) Json.to_bool
let json = { enc = Fun.id; dec = Fun.id }

let list c =
  {
    enc = (fun l -> Json.List (List.map c.enc l));
    dec =
      (function
      | Json.List l ->
          List.mapi (fun i v -> try c.dec v with Fail (p, m) -> raise (Fail (Index i :: p, m))) l
      | _ -> fail "expected list");
  }

let option c =
  {
    enc = (function None -> Json.Null | Some v -> c.enc v);
    dec = (function Json.Null -> None | j -> Some (c.dec j));
  }

let conv of_repr to_repr c =
  {
    enc = (fun v -> c.enc (to_repr v));
    dec = (fun j -> match of_repr (c.dec j) with Ok v -> v | Error msg -> fail msg);
  }

let enum names =
  conv
    (fun s ->
      match List.assoc_opt s names with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "unknown value %S" s))
    (fun v -> fst (List.find (fun (_, v') -> v' == v) names))
    string

(* ------------------------------------------------------------------ *)
(* Records *)

(* Field lookup by name; the first occurrence wins, as in Json.member. *)
let rec member name = function
  | [] -> None
  | (k, v) :: rest -> if String.equal k name then Some v else member name rest

(* [fenc r acc] prepends the field's pairs to [acc], the pairs of the
   fields declared after it; [fdec] reads the object's pairs. *)
type ('r, 'a) field = {
  fenc : 'r -> (string * Json.t) list -> (string * Json.t) list;
  fdec : (string * Json.t) list -> 'a;
}

type ('r, 'c) fields = ('r, 'c) field

let field ?default name c get =
  let seg = Field name in
  {
    fenc = (fun r acc -> (name, c.enc (get r)) :: acc);
    fdec =
      (fun o ->
        match (member name o, default) with
        | (None | Some Json.Null), Some d -> d
        | None, None -> raise (Fail ([ seg ], "missing field"))
        | Some v, _ -> ( try c.dec v with Fail (p, m) -> raise (Fail (seg :: p, m))));
  }

let opt name c get = field ~default:None name (option c) get
let inline group get = { fenc = (fun r acc -> group.fenc (get r) acc); fdec = group.fdec }
let record k = { fenc = (fun _ acc -> acc); fdec = (fun _ -> k) }

let ( |+ ) fs f =
  {
    fenc = (fun r acc -> fs.fenc r (f.fenc r acc));
    fdec =
      (fun o ->
        let k = fs.fdec o in
        k (f.fdec o));
  }

let obj fs =
  {
    enc = (fun r -> Json.Obj (fs.fenc r []));
    dec = (function Json.Obj o -> fs.fdec o | _ -> fail "expected object");
  }

(* ------------------------------------------------------------------ *)
(* Variants *)

type 'a case =
  | Case : { tag : string; payload : ('b, 'b) fields; proj : 'a -> 'b option; inj : 'b -> 'a } -> 'a case

let case tag payload proj inj = Case { tag; payload; proj; inj }
let constant tag c = case tag (record ()) (fun v -> if v == c then Some () else None) (fun () -> c)

let variant key cases =
  let rec enc_with v = function
    | [] -> invalid_arg (Printf.sprintf "Codec.variant %S: no case for value" key)
    | Case c :: rest -> (
        match c.proj v with
        | Some b -> Json.Obj ((key, Json.String c.tag) :: c.payload.fenc b [])
        | None -> enc_with v rest)
  in
  let dec_obj o =
    match member key o with
    | None -> raise (Fail ([ Field key ], "missing field"))
    | Some (Json.String tag) ->
        let rec dec_with = function
          | [] -> raise (Fail ([ Field key ], Printf.sprintf "unknown value %S" tag))
          | Case c :: rest -> if String.equal c.tag tag then c.inj (c.payload.fdec o) else dec_with rest
        in
        dec_with cases
    | Some _ -> raise (Fail ([ Field key ], "expected string"))
  in
  {
    enc = (fun v -> enc_with v cases);
    dec = (function Json.Obj o -> dec_obj o | _ -> fail "expected object");
  }

(* ------------------------------------------------------------------ *)
(* Tables *)

(* One encode or decode builds the body around an entry codec bound to
   that document's table, so nothing outlives the call. *)
let tabled name ~hash ~equal elt body =
  let unused _ = invalid_arg (Printf.sprintf "Codec.tabled %S: entry used in the other direction" name) in
  let table_field = opt name (list elt) (fun _ -> None) in
  let enc r =
    (* Intern in order of first appearance: [hash] picks the bucket,
       [equal] confirms the match. *)
    let buckets = Hashtbl.create 64 and values = ref [] in
    let index v =
      let h = hash v in
      match List.find_opt (fun (v', _) -> equal v v') (Hashtbl.find_all buckets h) with
      | Some (_, i) -> i
      | None ->
          let i = Hashtbl.length buckets in
          Hashtbl.add buckets h (v, i);
          values := v :: !values;
          i
    in
    match (body { enc = (fun v -> Json.Int (index v)); dec = unused }).enc r with
    | Json.Obj fs -> Json.Obj (fs @ [ (name, (list elt).enc (List.rev !values)) ])
    | _ -> invalid_arg (Printf.sprintf "Codec.tabled %S: body is not an object" name)
  in
  let dec = function
    | Json.Obj o as j ->
        let entry =
          match table_field.fdec o with
          | None -> (
              (* A document from before the table: every entry inline. *)
              fun v ->
                match Json.to_int v with
                | Some i -> fail (Printf.sprintf "index %d, but there is no %S table" i name)
                | None -> elt.dec v)
          | Some l ->
              let values = Array.of_list l in
              fun v ->
                let i = int.dec v in
                if i >= 0 && i < Array.length values then values.(i)
                else
                  fail
                    (Printf.sprintf "index %d outside the %S table (%d entries)" i name
                       (Array.length values))
        in
        (body { enc = unused; dec = entry }).dec j
    | _ -> fail "expected object"
  in
  { enc; dec }
