"""Token kinds and identifier roles, the tags the frontend puts on tokens.

They live outside ``frontend`` so that ``symbols``, which reads tagged
tokens but parses nothing, does not load the lexer and parser into the
model stages' processes. ``frontend.lexer`` re-exports them.
"""

# Token kinds (spec'd vocabulary).
KEYWORD = "keyword"
IDENTIFIER = "identifier"
CONSTANT = "constant"
STRING = "string-literal"
OPERATOR = "operator"
PUNCTUATOR = "punctuator"

# Roles attached during parsing; "plain" identifiers are variable mentions.
ROLE_PLAIN = "plain"
ROLE_DECLARED = "declared"
ROLE_CALLEE = "callee"
ROLE_TYPE = "type"
ROLE_FIELD = "field"
ROLE_FUNCTION = "function-name"
