"""The check behind every byte-for-byte pin of a report, and what a re-pin undoes to.

A pin is the sha256 of a report as the CLI prints it.  A change that alters
a pinned JSON report's bytes on purpose announces the edit, keeps each old
digest in PREVIOUS, keyed by the new one, and writes the inverse of its
edit as UNDO.  `assert_pinned` then checks, beside the new digest, that
UNDO of the new report gives back the old bytes, so a re-pin shows that the
announced edit is the only change.  The next change that re-pins a JSON
report replaces PREVIOUS and UNDO with its own.
"""

import hashlib
import json


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def assert_undoes_to(new_json: str, old_digest: str, undo) -> None:
    """undo of the JSON report new_json, written as the CLI writes a
    report (indent=2 and a final newline), has the sha256 old_digest."""
    old = undo(json.loads(new_json))
    assert sha256(json.dumps(old, indent=2) + "\n") == old_digest


def assert_pinned(out: str, digest: str) -> None:
    """out has the sha256 digest, and undoes to its old pin if it was re-pinned."""
    assert sha256(out) == digest
    if digest in PREVIOUS:
        assert_undoes_to(out, PREVIOUS[digest], UNDO)


# The last re-pin: the twelve integer fields that reports wrote as bare JSON
# numbers are decimal strings.  Its inverse turns exactly those back into
# ints: eleven top-level fields and the sign of each tangency.
_WERE_BARE = ("genus", "mapping_torus_b2", "tiles_per_side", "base_chi", "convex", "concave",
              "longitude_wraps", "suture_count", "convex_corners", "euler_pairing", "poincare_hopf_chi")


def UNDO(report: dict) -> dict:
    out = {key: int(value) if key in _WERE_BARE else value for key, value in report.items()}
    if "tangencies" in out:
        out["tangencies"] = [{**t, "sign": int(t["sign"])} for t in out["tangencies"]]
    return out


# new digest -> the digest it replaced
PREVIOUS = {
    "04bc56a1548389cc3349d402389add26cad2b734cc9d508095f5973c6d2ceaa7":
        "1184f4f957e7157bf906f1f715b2d76f07c0bdbeca42edd6e38cffe8e82e935d",
    "7d49a16f7e73b14f5919135d598d55a7897923d69e30949e84c8e896c1ad4efb":
        "4dc0bdc81d54ddde41e8e6b73484b0b8ebfce5c5b14be5c82798dd8f0f3b3c66",
    "de6258f7663678e77bfe3674974a2f33cf3a78108e822bc74cd1eaa5fa715dee":
        "781815e4d4e244614fe992308697e8fa108e0f558a42e4c9ac2eea87ba86a7e1",
    "26650938cdf30e0e01db5a3d24cbdf40a54dcee1308f19a05e6fc82d5c241ade":
        "f8f5d431175cb4b948ce765fc0994b3fbb53defe48677910f2b43cfdce73ad6f",
    "80aac55d95a2cd2f5f6492e6832690ebc26b39b4904ffb61437e79c134c0cf7c":
        "a49aff87d8595698d7fc77a65f90e9bf3686f55d882acc04ff21c80d6d6bf6bf",
    "15a2efaf24ba2b2cd1e58688761b35261c5d94c003411c4d24929c4cc57e7c21":
        "f7c8fa2a26765ca22d2cfcacc1e840c630840bf34d11581643cbd7aa34379642",
    "3870841d02a65c6567f87d5f034a6780baaed5d563c6a596a1082b86d2aa90c1":
        "c920077ed3e83b212167ef7c69b20968613e10642491e5965b41ab8d4f9f36d6",
    "185fe25c275388fc47be3f809f245855d556f5fa259ffeb43bf4ea6a02dd0497":
        "9bda900758f6c71f97215a446c0aade822e54c055a286aa61f37dd5feec20ddb",
    "693046d6e952a05c430f0f54b143d9aaf57529a73ad0b716255da02475462ded":
        "da285c971242c345558b349fb2876279b43e2dada5d2a3200fef09c5f3604ef0",
    "7b1c6e1818a6b46a07cd2d8e30bdbc954e07133cbaf4f1eb72edbd9d78eedb68":
        "9a05814dc7caefe75ca56ecbec4e3e62f60b463a404117e3796ad49ef05ef4e0",
    "d481fb55181c3485ce34c0196a52e1bfdaafa738e3c850cfa29972a38f00ef8d":
        "759362be8d8c667176b8b67ba7560a2140b4a33c0482d5dc627928820fa20ab5",
    "17c9382f6f130b0a543bf208fc63e4b9f5cb4bc5875f889cec422fbbd81388d9":
        "475adb107c984e59a4d6eaf866acf873efaad8bb3444fc8d7f0c5cd4b3f186f0",
    "49bb656fb953a6082a182af5999c342b94d430f7b33c7a545dc28835371e7c2b":
        "49ac4dcd740aa7881d0daa073af5fa9e45786df2ef1e6635e66272387588391b",
    "55e4eb82c24168cce6975ced630cc64d2f22f90269489458103f2843334a2f0a":
        "e05b4eabdd6030ec7256e9a221bc6b60b8cf730dcf6a151763af52ca6319efae",
    "287d09932e35e6bdf73409c48f9b66cdcaf7d8b7c753efdd7e674369efcedd6d":
        "848b22d8b800618287f100b905393b39a8664107f38a4ae316654ce7ec1301f4",
    "876867e6e182565c0e67b2fa7700c8cb41bbaa6d8285ee74c5ff13410b647752":
        "5db604003e7835c72b7e9f6f8169edd828a347641d3aab0c72aec72fd5fb1b0e",
    "429cbf745c3e959e9777b69aecfa36907f8d2b1d28432525034a50ee6aad7d63":
        "52677289eb86436c7197e9114eca6e1569394295008725b178ceb0abfa40bd74",
    "6e0a3a9828fe15fa572029f4c5c5ca84a5e4d1acba27bbb057c7f31d05197c8d":
        "c8c8e42d901754637d8c7fb05b8ac155230d9852afbadb2fe5bc9777a255ef06",
    "41eeaf2fc0c59a5c3aab7336beb1a363e5cb6bac6de6f96d3b6aa9e665af4dff":
        "81917114556538a53351c961031f317f5d5ee44ba25a36b2945120fc3553840e",
    "821f69b32c2c04573f33ef13c109a49ef416b32ba8f9ca8034d5c293333e2857":
        "b04d844098eaeec8a5d38e0443ac9663b3eee9f0d8be4fa959b710ae1031a3bb",
    "a4d8ead9c3c3f3231bc3f0b2c17dd0726e35dded482bee371d88c6053a9c85ba":
        "a00cb6e9298a30fc6bee07dc4c55e0ad5413f1ade9c495b21c059aedcef41bbd",
    "c12d495cc147fe497b3bfd5bf6e2705a35352cca7eae24998b8745fcec0aeff1":
        "3469c758d308f1207d8b1783331f60f7dc7a00e9b1c6df1018dd57a1339bd055",
    "89b1afaeda4b94c59545501bf8a1694659c636a9694e5c9857763e7e0e96d3da":
        "a01e182748490e8bbf4e970091cae41d6a6d71c1f17ad438748047662a008368",
    "010b9b66766e4ce1c0f33133218c117aeaa86645aee0fa444238f54b65a75e74":
        "14d3d419c587b0d1cf79e4d7f347a16d54822efe7e1e9e96d1becadb684e6d33",
    "3179462af70412448e4482ee7da75c7835ae5de6c2b648569bcfac62630d11e3":
        "0ea3437555769c56271c6d6d4163c4fe2138ccae7b34c34369e79399ceec6b7d",
    "a2edd436c4504389be4e592b762d3ee30cf04cc06386a00158163d92cb314251":
        "8336e068db1cd14fd10306e27e140531ab7bd2fc11af7becf8c75943064ca1a8",
    "3bd0806973c7ddf84dc74e525ceeb1fc86a781a892fb484e789a6f780916446b":
        "a303063f5ce110c4ed8cd65cd4dac1dc9de40db211cff3f6e8981467e6ba8602",
    "ce2d1e5a9233a01c6e564a48b80ce4b7efe855ea953c478c6ba900b2af74b0b5":
        "df39adc1ab4ea81d591a4df2ec1477bc7a896af396cb585b12b2f4347b6da8a1",
    "af85bc4c5b228790e3e044cc2087a94850a347b0748aa25f2c9a8b68306885ea":
        "74c7287768c16dff023baee698bb474395077f4be46628432e0159290630b0ed",
    "4265cfec0614daa301c9fb736d775b2098bb7d5158aaa1edf702cc7772368390":
        "3548f8441b3b66887ff95f54f52d0c5d8589af6bd9a3b4a9a1045a513396d1d3",
    "56d92fb18c6ed326516a27ebe6e2bf271485e4f1261a84d63d49836e016d6c9e":
        "ea1064cb1f091b7f9603a20e908fdc45e50c710007e95408fd32b6df5a6c1c9e",
    "b8582cb3b597cf85c0f19361aabba10aa46e8d5849c5d79fd5136557cfb5f792":
        "1238d9d74d2d717ddef1edf9466597ccdefc3cae580d0fa15261b32ef660379b",
    "fbfb6f108d339aac1048b2f24c28bef8ec09841c09e31f0edc9a47b774338ef3":
        "ec26260f616c9cdeb8249067559aa727e93afb41c0b5e08a26a6d4c287139381",
    "d1e24690555a0376156dbdc5e35c6fefa2f42864b203a370b0dfc12b1642085a":
        "91b6b27720c20fb677a1cdc8d093fda7c6b45e6081766dfccb0ad83576bb97ca",
    "1c91636bf1a7ecb83d780dc38a9805c81278a05fb070c2a674c44d2f89a788e2":
        "89329b2adfbda52c937a93370e9eda9709685dcc075903f4ae64b8b5565523e9",
    "9762d0061c3f53b8cc9a738b45b4e427763bffcfe426334fb8c77e4a0ca2ec28":
        "d1030fdfc8afe5628004d653ba4018a32146291b54770cf86d0bf1c739759bc5",
    "852fe85d00ef7660fc824b2f32e1f23b85a769231cf6612718b75b0522051688":
        "f5f1d2fd172187d9948fac948f2af01e5f79c64600ebc3fd27540edd3dc3da69",
    "1f72063a81b8bb558409f74d73f2a91091110e5fdb25e89628c7aa6fb918fe57":
        "4e6b690fa84209fcd729e26976b6dc379da4922301797f390fe09decf6747b55",
    "7aab2abc74e6decbd473c467010a43e8269f419ffb9807c6a5d8416bbc401509":
        "00dae8b4d9963efeed488846a838a28f4c534503635312cda54f2737b27bbee2",
    "882702830bfe6b81bdd3e676792d981d1dd5484b65c503ab7b13c5231e4f7d57":
        "ade28439f1ed41f350c3f7fff295462412ea68de4c9608c63f6dd7c9737d10fe",
    "94cc7422aed4ddc3986ee246b5f30a2e56ddf892806c5ea7d6deec11e9c1badd":
        "923537b951202e02de4d5d6738ae3c60dc53cfb6f051e24c904f44f3cf00e9e0",
    "1093dcb36db5e9e9c548046cc05bd57bdba89609b51652da7384768132e4c787":
        "f35a82bc559f52213fd3a270d265ac11b2396871d7ad446196ee88dfe9925a7a",
}
