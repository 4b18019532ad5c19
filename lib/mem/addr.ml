type va = int
type ipa = int
type pa = int

let page_size = 4096

let check kind n =
  if n < 0 then invalid_arg ("Addr." ^ kind ^ ": negative address");
  n

let va n = check "va" n
let ipa n = check "ipa" n
let va_to_int a = a
let ipa_to_int a = a
let pa_to_int a = a
let ipa_page a = a / page_size
let pa_page a = a / page_size
let va_page a = a / page_size
let ipa_offset a = a mod page_size
let ipa_of_page pfn = check "ipa_of_page" pfn * page_size
let pa_of_page pfn = check "pa_of_page" pfn * page_size
let pa_add a n = check "pa_add" (a + n)
let equal_pa = Int.equal
let pp_ipa ppf a = Format.fprintf ppf "IPA:0x%x" a
