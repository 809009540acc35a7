"""Golden results: CLI reports on the session fixtures stay byte-identical.

Each case pins sha256(json.dumps(results, sort_keys=True)) of one report, so
witness strings, caveats, exact flags and brackets are all covered. The hashes
were recorded before the nu-scan, bracket, staircase and product-matrix code
was consolidated, the ex-determinantal ones before Groebner basis elements
carried their leading terms, and the Macaulay-piece ones (truncated cones,
initial ideals, lemma22 separating classes) before `linalg.rref` returned only
its pivot rows, and the initial-form, F-rationality, socle and colon-lemma
ones before the callers of `linalg` handed it term-dict rows, and the
reduction, superficial and final-lemma22 ones before the lemma checks tested
one containment instead of comparing two Groebner bases. Ten were
re-recorded when one exact Macaulay matrix replaced the stabilization loop:
four initial ideals became exact, two theorem A reports lost their
truncated-initial-ideal caveat, and four verify-gr reasons no longer name a
product degree. The six `gr` ones were re-recorded when one t-saturation
replaced the four ways of building the cone: the reports dropped their
`method` and `truncation_degree` fields, the five cones that were already exact
are otherwise unchanged, and the ex-determinantal cone became exact, with its
degree-7 generators. The four non-homogeneous `gr-ideal` ones were re-recorded
when every initial ideal became exact through the nilpotency degree N: the
reports dropped `truncation_degree`, and the generator lists end with the
degree-N monomials instead of every monomial of degree N..D, the same ideal.
A change that alters one of them changes a reported answer.
Arguments are split on spaces, so generator lists are written without them.
"""

import hashlib
import json

import pytest

from conftest import session_path
from fthresh.cli import run
from fthresh.fsing import FPurityError

GOLDEN = [
    ("ex-blowup", "nu --a m --J m --e 1",
     (0, "302d3429fcb44c1ec5509ec79a28a6c9e3ae91703d54de96555c2a4a0da93fe2")),
    ("ex-blowup", "nu --a m --J m --e 2",
     (0, "e673f6736f218155054eca41ececc0352708d5eacf96bd76dba42baa026f27e7")),
    ("ex-blowup", "threshold --a m --J m",
     (0, "9366f877d421e706a9e6ef0ef89562cab99d29aa5fe55e8fdd9b5646bcd23452")),
    ("ex-blowup", "fpt --a m",
     (0, "e1949ed9a8db2827104bf28f392940f9432efc6c41454d1cd44a347c0acaecef")),
    ("ex-blowup", "socle --a m",
     (0, "72dd00e5c050335b4503dab79b01bd6a4f8a780a86dca87e18fd6b65c367a34f")),
    ("ex-blowup", "gr",
     (0, "0adbb3a50aa610f9174ec56ded570542081d298c31e2ea3afa8a2431fb31f592")),
    ("ex-blowup", "verify-gr --a b",
     (1, "54fef45dbfe29c998d88dab13451742c61f5b08eda9fecd1338296ef14e34724")),
    ("ex-blowup", "verify-thmA",
     (0, "5e2036e6226fb2e7d74ff7c4bcc4379b7443773d240da028a9dc4f960d70361f")),
    ("ex-cusp", "nu --a m --J J --e 1",
     (0, "ad650abc8b0efca1d42853169cd01ca1e6d5813ab6f0abcd7230e1b541d4c0db")),
    ("ex-cusp", "nu --a m --J J --e 2",
     (0, "5f388817dd6cf3432ad3b439d162842d3cf0e9df6164fc9cf9129bbc8b3afac3")),
    ("ex-cusp", "threshold --a m --J J",
     (0, "d8aa226a1d3a1f41edb49e3f37ddc830c9e829feb55d5af363bceede629d6e76")),
    ("ex-cusp", "fpt --a m",
     "FPurityError"),
    ("ex-cusp", "socle --a J",
     (0, "99a6559ce73c56102f7c82a175cc3a1d86e100a3727b828f8439a82bb8ec3ec7")),
    ("ex-cusp", "gr",
     (0, "81529c8035f0e729b9e3664e23287a40fb887765bd777bc9000d36e62d267735")),
    ("ex-cusp", "verify-gr --a J",
     (1, "673a87d4d808107836119c191c3431139074f65ea96c2ad3bde0a9fcdfd49d4e")),
    ("ex-cusp", "verify-thmA",
     (0, "84022bb94d1f2f86572398807198421144147bed94817d502a69975925481101")),
    ("ex-fermat-cubic", "nu --a m --J J --e 1",
     (0, "080f0f66a1a736ab098beccabcbba5bb09c5e773fa51a5636cc614aad8dd02ed")),
    ("ex-fermat-cubic", "nu --a m --J J --e 2",
     (0, "1809b3caa21490a08d369f85d60533a27b670140c7b0dc057d19bc25dea1a751")),
    ("ex-fermat-cubic", "threshold --a m --J J",
     (0, "55d81ee7db6836a455c69304e4ac0e92c7f12be9213a15a1ff851862dc06398d")),
    ("ex-fermat-cubic", "fpt --a m",
     "FPurityError"),
    ("ex-fermat-cubic", "socle --a J",
     (0, "75a73b7c86b431fab923e3c7b3f6a9737176e573647674bc99b4a7dc29e1d37a")),
    ("ex-fermat-cubic", "gr",
     (0, "31e57608401631611df2d6be1716c5b0490a770d72a72a1346aab836ab8a88ed")),
    ("ex-fermat-cubic", "verify-gr --a J",
     (1, "54fef45dbfe29c998d88dab13451742c61f5b08eda9fecd1338296ef14e34724")),
    ("ex-fermat-cubic", "verify-thmA",
     (0, "ab7c7ac70c9f75c5db073635cd4639975b9f13d935b105ced261957a3fa385e4")),
    ("ex-node4", "nu --a m --J m --e 1",
     (0, "302d3429fcb44c1ec5509ec79a28a6c9e3ae91703d54de96555c2a4a0da93fe2")),
    ("ex-node4", "nu --a m --J m --e 2",
     (0, "5484d2b9bd76a4307fb24e73e4a3ac31c8b287487ac9bce153b9f597b40f95ac")),
    ("ex-node4", "threshold --a m --J m",
     (0, "5235abf5da978263512457d2bdb56e66592f24a8e7667e2190164e25c86ee49a")),
    ("ex-node4", "fpt --a m",
     (0, "e1949ed9a8db2827104bf28f392940f9432efc6c41454d1cd44a347c0acaecef")),
    ("ex-node4", "socle --a m",
     (0, "72dd00e5c050335b4503dab79b01bd6a4f8a780a86dca87e18fd6b65c367a34f")),
    ("ex-node4", "gr",
     (0, "0adbb3a50aa610f9174ec56ded570542081d298c31e2ea3afa8a2431fb31f592")),
    ("ex-node4", "verify-gr --a n",
     (1, "54fef45dbfe29c998d88dab13451742c61f5b08eda9fecd1338296ef14e34724")),
    ("ex-node4", "verify-thmA",
     (0, "fe559fb78073a708f1f2e5acebcfb87407fa5aef8ad44d28fe995d385ef58056")),
    ("ex-regular", "nu --a m --J J --e 1",
     (0, "c39bf2694495939a87989deae11e3d49c7789e6e53658652e1facf48a3e270b3")),
    ("ex-regular", "nu --a m --J J --e 2",
     (0, "7cf42df5cdc630bfe7477d694e16d7bd424ffd848f9fdb5b6ad2a2946cdf81e4")),
    ("ex-regular", "threshold --a m --J J",
     (0, "24d616999a29b7e5ecc6e1d64db08c09fb0cd3d97cdca869e17e955c1061dbf4")),
    ("ex-regular", "fpt --a m",
     (0, "6803c8d4ec4dc4193f96f7651458c3a645facad53300def983228ba780e6d797")),
    ("ex-regular", "socle --a J",
     (0, "72dd00e5c050335b4503dab79b01bd6a4f8a780a86dca87e18fd6b65c367a34f")),
    ("ex-regular", "gr",
     (0, "d1d466eb7f68447a90f4fafe7f29635f4568577b4a4b291f23f052c4a7d31089")),
    ("ex-regular", "verify-gr --a m2",
     (1, "fbcceeae698cee42f80ee3668cee1e09d6d6bfe27ba169859afdc409bd7e0a17")),
    ("ex-regular", "verify-thmA",
     (0, "2e74cfd76a05c52771b2dde631b85cdf1d8115c8434e37bb06b78cee03a2b517")),
    ("ex-regular", "threshold --a x^2+y^3,x*y --J J",
     (0, "f5b579b765092d3b9342b6efe8e1027d8cac2589447e35122d63e9b3ccd4791b")),
    ("ex-cusp", "threshold --a x+y^2 --J J",
     (0, "9f35c2b4e7ff89a94c95de04926dd2ecd287a27a8b87a668346819c671f121be")),
    ("ex-blowup", "nu --a x+z,y,w --J b --e 1",
     (0, "3970c150d7234a91bf4351360fe19495748230d7b729b83f7387df7866b7157c")),
    ("ex-fermat-cubic", "threshold --a x+y,z --J J",
     (0, "da87552a53b1993c87f67de74254772d1fe9a2a60b7980cd6f0af897400e3af7")),
    ("ex-node4", "fpt --a x+z,y+w",
     (0, "2ec267179750916628ba0e0962ca348224d103927116b9ad32d5a245597bdc72")),
    ("ex-blowup", "verify-gr --a x*y",
     (0, "9bbb017db0a43976d22884565b9b00b95788b55d1c1546e19d05f0ad2031f335")),
    ("ex-node4", "verify-gr --a x*y",
     (0, "82324199606aa1308a0f06a1e457470ae213ed6f52cf59be4268baf1c95792a3")),
    ("ex-fermat-cubic", "verify-gr --a x^3+y^3+z^3",
     (0, "a7d3289beb374043ef99f2e9d1dc584570ed6849160fc3470f690d6cc3bb2cea")),
    ("ex-cusp", "verify-gr --a x^2",
     (0, "bc03b398376a84ecb5e318208f82c444fa060d7f569974f17e278376be745a8a")),
    ("ex-blowup", "fpt --a x+z,y,w",
     (0, "d6a9078e3b6b2998a5767c3e07a9fb5016bd641886b78427351d715aeeff8d09")),
    # non-monomial scans whose last level has several rows, so the witness
    # depends on which escaping chain the scan picks
    ("ex-regular", "threshold --a x+y^2,x*y --J J",
     (0, "3b75afb0959b7d6e7046d6a8276771dfd7e872229afe7a69aab0b8dc40c3f4c6")),
    ("ex-node4", "threshold --a x+z,y+w,z*w --J n",
     (0, "abd28617bb10a374a15f05e0bbd10c16c38b3fb1d58b6ec226840651ed8f20b1")),
    ("ex-fermat-cubic", "nu --a x+y,z^2 --J J --e 2",
     (0, "03e90ddb987bb82ee311963f44ec375a9026ea60c3aede4e3958e3f7ebf349f9")),
    # the six-variable fixture: elimination-order bases (tag-variable colons,
    # the splitting colon (L^[2] : L)) and grevlex bases of m^[q] + L
    ("ex-determinantal", "gb --a minors",
     (0, "817cda0031eb64c269cbc53294c7ea38e4b9e3389b88f01e53fd06503b9b9396")),
    ("ex-determinantal", "colon --a m --b minors",
     (0, "574865a5d6745620952f3367579d16f0ff5d13580847d42d3e1c6fc0b8691c21")),
    ("ex-determinantal", "fedder",
     (0, "fe2cb4a1d81f827aa0d4ac398ff29c9822af6f79d389e8d104960f491645e01a")),
    ("ex-determinantal", "fpt --a m",
     "FPurityError"),
    ("ex-determinantal", "threshold --a m --J m",
     (0, "7adc438aa8530812622adde6cbac6264bb9467af45716940fe6da4fbd6bcd85c")),
    ("ex-determinantal", "check --name reduction --a m",
     (0, "11af31cb0697fd9ceb78529b15562f1feca16a599ba1354b5ba94ee63c18ad83")),
    # the t-saturated cone, exact initial ideals and the separating classes of
    # lemma22
    ("ex-determinantal", "gr",
     (0, "fa5030c8a185875b613919d004e4c9619c80c7850f8b9c705085773a10638081")),
    ("ex-determinantal", "gr-ideal --a m",
     (0, "b304152ff531ccbbfd3a7f5929f47b35b679c0aefea11d3e36b9a34edff6c628")),
    ("ex-determinantal", "verify-gr --a minors",
     (0, "54a3f37c2dee5ab016f4a7a7b1f36abd8f538be8070b176152cdc2422035b589")),
    ("ex-blowup", "gr-ideal --a m",
     (0, "7fd72cd2730ca576230cb5d6a767e9f9eeec5b1d6991214e8e8d9c6c532f103b")),
    ("ex-cusp", "gr-ideal --a J",
     (0, "17487ad6f96712851a53bac38e9132e6e1308a19affd89a749abff7d9e246a57")),
    ("ex-cusp", "gr-ideal --a m",
     (0, "c6c2522491751d6045e60c13bbf1becf467b144269b615dd7b7fa2f2e1039e8e")),
    ("ex-blowup", "check --name lemma22 --a x^2,y,z,w --b m",
     (0, "f3b5a19ed7ecba41001402b40bc0f2a86828184a8fa220a108422a99b3fab22a")),
    ("ex-cusp", "check --name lemma22 --a x,y^2 --b m",
     (0, "bc60c71af66116c455e4ed09d698c3422649cef0251f96edef4f9c01836f4df1")),
    ("ex-cusp", "check --name lemma22 --a y^2,x*y,x^2 --b x*y,y^2,x",
     (0, "b0006de1a0f20b5adaad22953f79165f4d371c9d16e3db1511a6cca650ac1009")),
    # the solve, rank and kernel paths of linalg: initial forms, F-rationality
    # colons, socles and passing colon-lemma injectivity tests
    ("ex-blowup", "initial --x f",
     (0, "d1c039d5d22134ef4dc6120adcd435ba9ed28d011f0746b04072a4f096491fff")),
    ("ex-regular", "initial --x f",
     (0, "ab99f25b75ddf2209a703e18c42ce6f156b7a292c27510dba19fc646d097e9bc")),
    ("ex-cusp", "initial --x u",
     (0, "3076b0af3fe7f129412d83e10b0adec63ae3742ee2381fd730db27b5fb9bdcca")),
    ("ex-fermat-cubic", "initial --x u",
     (0, "ccdfc947ed9cba3f06de12ac6d4a349087774806fe23d2116d21f48b3e84567a")),
    ("ex-determinantal", "initial --x x11+x12*x22",
     (0, "ab57e5d541b8649a3bb744fddc84f3a0417ec556c7e109eb83e9690649d90b4e")),
    ("ex-cusp", "frational --J J --c c",
     (0, "5babd3639f9e1d35e5913833d2f40a7e05d606fd473e544b9b22664ebf518e8c")),
    ("ex-fermat-cubic", "frational --J J --c c",
     (0, "efe4819e0a0e19a1b41f0bff10b112b143b371e05a7daf8c51639febd3470336")),
    ("ex-regular", "socle --a m2",
     (0, "dfb2c9635c3267c16a70734d49d6008430599d6233b33b6339f164a70a37f482")),
    ("ex-cusp", "socle --a x^2,y^2",
     (0, "6c8eccf7dc6aeca57ab95efb59656bd163c868d30eecbec888be681f8a58fec3")),
    ("ex-blowup", "check --name colon-lemma --x z",
     (0, "4246dd344ee7dfd7f14ee56bc83ddc0caf6c344efdd1e752abce5d3e65622328")),
    ("ex-node4", "check --name colon-lemma --x z",
     (0, "68fb9121960f1964db2373c3d66558693dcfe51139a0f5f247257ea3d76cffd3")),
    ("ex-cusp", "check --name colon-lemma --x y",
     (0, "3e746c9396c83275d974a7761578d63fcd145f3bb71a72e4992559e12277aa7b")),
    ("ex-fermat-cubic", "check --name colon-lemma --x x",
     (0, "7b79d020e10932588fead4c82353ddf59efe3dc926b10e8d7500c34602c22d04")),
    # the lemma checks' containment tests: reduction flags, superficial
    # elements, and a lemma22 pair whose graded pieces all agree
    ("ex-blowup", "check --name reduction --a m",
     (0, "09a9e8cab33b9776c2dd86732cdb092e8a9210b7b682e777e9bd152761ffdca5")),
    ("ex-cusp", "check --name reduction --a J",
     (0, "de828c7e09ae3790266c873d52016f02c0129290987cd5c92e1cf6e134e9dcd2")),
    ("ex-fermat-cubic", "check --name reduction --a J",
     (0, "e969c63c9b5a1c9cf972351fa9d2fd2c61e769c76a97b7f8c996951217095556")),
    ("ex-node4", "check --name reduction --a m",
     (0, "d91bec845b56b35f153bd9895deee014de24a639ae4c4abd5b95d662fdd7825a")),
    ("ex-regular", "check --name reduction --a J",
     (0, "04ad601ae3d9f76e3ff354a2a80d9049e080db264f3e3c9618fbd451bf80e0da")),
    ("ex-cusp", "check --name superficial --x y",
     (0, "37fa74abdbc0d1ea542e87566918cbdd7b4805bbaea03bee8c24dde3e75c1d66")),
    ("ex-regular", "check --name superficial --x y",
     (0, "5985fe9e79d9e7a6ccc567cd8fec546c585578591af45e3054bbac0ee4c2389a")),
    ("ex-fermat-cubic", "check --name superficial --x z",
     (0, "444cbbe0c247d6ade87b29f7cf665985979d017fcf43ff872fe6d6d1af63f589")),
    ("ex-regular", "check --name lemma22 --a x,y --b m",
     (0, "97e282aaf11a5b94874212f26b70a31a0959ef449f717a46654b1015b8b881df")),
    # orders and initial forms modulo relations, recorded while they still
    # came from Groebner bases of m^k + L; the first two pin the pivot that an
    # initial form drops from each in(L) element: the lex-smallest monomial
    # (x11*x22 and x11*x23, not x12*x21 and x13*x21)
    ("ex-determinantal", "initial --x x12*x21",
     (0, "40deebd96dfa462e7565ec53ce4a90024a462c1c6a521de1629439edd2da14be")),
    ("ex-determinantal", "initial --x x13*x21",
     (0, "816c7cbacfdad5a661914351f276cce8da09f25f7a5254b0f69b965f4b906709")),
    ("ex-determinantal", "ord --x x12*x21",
     (0, "7e569daabcb65a9c1974bfde400172257d62951da60c595e8fd6f07a3548aede")),
    ("ex-cusp", "ord --x x^2",
     (0, "465afa74c6f85dd44c2ef2882ce81dcbfc37ee6fa83872c611764a2ba4afac7a")),
    ("ex-fermat-cubic", "initial --x z^3",
     (0, "ffa6039112c90c296534ea7b968fd126c2dd620ac157412baf63ff1ac2b34888")),
]


@pytest.mark.parametrize(
    "fixture, command, expected", GOLDEN, ids=[f"{f}:{c}" for f, c, _ in GOLDEN]
)
def test_report_results_unchanged(fixture, command, expected):
    name, *rest = command.split(" ")
    argv = [name, "--session", session_path(f"{fixture}.json")] + rest
    if expected == "FPurityError":
        with pytest.raises(FPurityError):
            run(argv)
        return
    code, document = run(argv)
    results = json.dumps(document["report"]["results"], sort_keys=True)
    digest = hashlib.sha256(results.encode("utf-8")).hexdigest()
    assert (code, digest) == expected, results
